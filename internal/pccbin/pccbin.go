// Package pccbin implements the PCC binary format of §2.3 and Figure 7:
// a native-code section holding genuine Alpha machine code "ready to be
// mapped into memory and executed", a relocation section (the symbol
// table used to reconstruct the LF representation at the consumer
// site), and a proof section holding the binary encoding of the LF
// proof term. Binaries for looping programs additionally carry the §4
// invariant table mapping each backward-branch target to its loop
// invariant.
package pccbin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/lf"
	"repro/internal/logic"
)

// ErrLimit is the sentinel all decode resource-budget rejections match
// via errors.Is: the input blew a configured parsing budget (term
// nodes or nesting depth), as opposed to being structurally malformed.
var ErrLimit = errors.New("pccbin: resource limit exceeded")

// LimitError is a typed decode-budget rejection.
type LimitError struct {
	// Axis is "term_nodes" or "term_depth".
	Axis string
	// Max is the exhausted budget.
	Max int
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("pccbin: %s limit exceeded (max %d)", e.Axis, e.Max)
}

// Is makes errors.Is(err, ErrLimit) match.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// Limits bounds the term decoder. Zero fields fall back to the
// package defaults (maxTermNodes, maxTermDepth).
type Limits struct {
	// MaxTermNodes bounds total decoded LF nodes across the invariant
	// table and the proof.
	MaxTermNodes int
	// MaxTermDepth bounds term nesting while decoding.
	MaxTermDepth int
}

// Magic identifies PCC binaries.
var Magic = [4]byte{'P', 'C', 'C', '1'}

// Invariant is one entry of the loop-invariant table: the instruction
// index of a backward-branch target and its invariant, stored in the
// same LF encoding as the proof.
type Invariant struct {
	PC   int
	Pred lf.Term
}

// Binary is a parsed PCC binary.
type Binary struct {
	// PolicyName names the safety policy the proof certifies; the
	// consumer refuses binaries for policies it did not publish.
	PolicyName string
	// SigHash fingerprints the LF signature (proof rules) the proof
	// was built against; the consumer refuses binaries whose rule set
	// differs from its own published one.
	SigHash uint64
	// Code is the native Alpha machine code (little-endian words).
	Code []byte
	// Invariants is the loop-invariant table (empty for the loop-free
	// programs of §3).
	Invariants []Invariant
	// Symbols is the relocation section: the signature constants
	// referenced by the proof, in first-use order.
	Symbols []string
	// Proof is the LF proof term of the program's safety predicate.
	Proof lf.Term
	// ProofBytes is the encoded size of the proof section, recorded by
	// Unmarshal so a consumer can enforce a certificate-size budget
	// (certificate size is the checking cost an attacker can most
	// directly inflate). Not meaningful on producer-built Binaries
	// until they round-trip through Marshal/Unmarshal.
	ProofBytes int
	// ProofNodes is the number of nodes in the tree Proof expands to,
	// saturating at math.MaxInt. Unmarshal computes it once per
	// distinct DAG node, so a hash-consed bomb costs no more to
	// measure than to decode. Not meaningful on producer-built
	// Binaries until they round-trip through Marshal/Unmarshal.
	ProofNodes int
}

// Layout reports the byte layout of a marshaled binary, mirroring
// Figure 7 of the paper.
type Layout struct {
	CodeOff, CodeLen   int
	InvOff, InvLen     int
	RelocOff, RelocLen int
	ProofOff, ProofLen int
	Total              int
}

// String renders the layout in the style of Figure 7.
func (l Layout) String() string {
	return fmt.Sprintf(
		"native code [%d,%d) | relocation [%d,%d) | invariants [%d,%d) | proof [%d,%d) | total %d bytes",
		l.CodeOff, l.CodeOff+l.CodeLen,
		l.RelocOff, l.RelocOff+l.RelocLen,
		l.InvOff, l.InvOff+l.InvLen,
		l.ProofOff, l.ProofOff+l.ProofLen, l.Total)
}

// term encoding tags. Proof terms are serialized as hash-consed DAGs:
// every serialized node receives an index in post-order, and later
// occurrences of a structurally identical subterm are emitted as a
// tagRef back-reference. Safety predicates repeat heavily inside
// proofs (every introduction rule carries its predicate arguments), so
// sharing shrinks the proof section by an order of magnitude — one of
// the §2.3 "optimizations in the representation of the proofs".
const (
	tagKonst = iota
	tagBound
	tagLit
	tagApp
	tagLam
	tagPi
	tagSortType
	tagSortKind
	tagRef
)

// collectSymbols gathers signature constants in deterministic
// first-use order across the proof and invariant predicates.
func collectSymbols(b *Binary) []string {
	seen := map[string]bool{}
	var order []string
	var walk func(t lf.Term)
	walk = func(t lf.Term) {
		switch t := t.(type) {
		case lf.Konst:
			if !seen[t.Name] {
				seen[t.Name] = true
				order = append(order, t.Name)
			}
		case lf.App:
			walk(t.F)
			walk(t.X)
		case lf.Lam:
			walk(t.A)
			walk(t.M)
		case lf.Pi:
			walk(t.A)
			walk(t.B)
		}
	}
	for _, inv := range b.Invariants {
		walk(inv.Pred)
	}
	walk(b.Proof)
	return order
}

func writeUvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// termWriter serializes terms with hash-consing. The `seen` map relies
// on lf.Term values being comparable structs, so lookup is structural
// equality. Indexes are assigned in post-order (children before
// parents), matching the reader.
type termWriter struct {
	buf  *bytes.Buffer
	sym  map[string]int
	seen map[lf.Term]int
}

func (w *termWriter) write(t lf.Term) error {
	if idx, ok := w.seen[t]; ok {
		w.buf.WriteByte(tagRef)
		writeUvarint(w.buf, uint64(idx))
		return nil
	}
	switch t := t.(type) {
	case lf.Konst:
		idx, ok := w.sym[t.Name]
		if !ok {
			return fmt.Errorf("pccbin: symbol %q missing from table", t.Name)
		}
		w.buf.WriteByte(tagKonst)
		writeUvarint(w.buf, uint64(idx))
	case lf.Bound:
		w.buf.WriteByte(tagBound)
		writeUvarint(w.buf, uint64(t.Idx))
	case lf.Lit:
		w.buf.WriteByte(tagLit)
		writeUvarint(w.buf, t.V)
	case lf.App:
		w.buf.WriteByte(tagApp)
		if err := w.write(t.F); err != nil {
			return err
		}
		if err := w.write(t.X); err != nil {
			return err
		}
	case lf.Lam:
		w.buf.WriteByte(tagLam)
		if err := w.write(t.A); err != nil {
			return err
		}
		if err := w.write(t.M); err != nil {
			return err
		}
	case lf.Pi:
		w.buf.WriteByte(tagPi)
		if err := w.write(t.A); err != nil {
			return err
		}
		if err := w.write(t.B); err != nil {
			return err
		}
	case lf.Sort:
		if t == lf.SType {
			w.buf.WriteByte(tagSortType)
		} else {
			w.buf.WriteByte(tagSortKind)
		}
	default:
		return fmt.Errorf("pccbin: cannot encode term %T", t)
	}
	w.seen[t] = len(w.seen)
	return nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) u8() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("pccbin: truncated binary")
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("pccbin: bad varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("pccbin: truncated section at offset %d", r.pos)
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

const maxTermNodes = 1 << 22 // parser bomb guard

// maxTermDepth bounds recursion while parsing proof terms. Legitimate
// proofs nest a few hundred levels at most (quantifier prefix + proof
// tree height); a malicious producer could otherwise craft a
// right-leaning spine that overflows the consumer's stack — the
// parser, like the rest of the consumer, must be robust against
// adversarial binaries.
const maxTermDepth = 4096

// termReader mirrors termWriter: it assigns post-order indexes to the
// terms it decodes and resolves back-references against them.
type termReader struct {
	r        *reader
	syms     []string
	table    []lf.Term
	sizes    []int // tree size of each table entry, saturating
	budget   int
	maxNodes int
	maxDepth int
	depth    int
}

// read decodes one term and returns it with the number of nodes in
// its tree expansion, saturating at math.MaxInt.
func (tr *termReader) read() (lf.Term, int, error) {
	tr.budget--
	if tr.budget < 0 {
		return nil, 0, &LimitError{Axis: "term_nodes", Max: tr.maxNodes}
	}
	tr.depth++
	defer func() { tr.depth-- }()
	if tr.depth > tr.maxDepth {
		return nil, 0, &LimitError{Axis: "term_depth", Max: tr.maxDepth}
	}
	tag, err := tr.r.u8()
	if err != nil {
		return nil, 0, err
	}
	if tag == tagRef {
		idx, err := tr.r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if idx >= uint64(len(tr.table)) {
			return nil, 0, fmt.Errorf("pccbin: forward term reference %d", idx)
		}
		return tr.table[idx], tr.sizes[idx], nil
	}
	var t lf.Term
	size := 1
	switch tag {
	case tagKonst:
		idx, err := tr.r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if idx >= uint64(len(tr.syms)) {
			return nil, 0, fmt.Errorf("pccbin: symbol index %d out of range", idx)
		}
		t = lf.Konst{Name: tr.syms[idx]}
	case tagBound:
		idx, err := tr.r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if idx > 1<<20 {
			return nil, 0, fmt.Errorf("pccbin: absurd de Bruijn index %d", idx)
		}
		t = lf.Bound{Idx: int(idx)}
	case tagLit:
		v, err := tr.r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		t = lf.Lit{V: v}
	case tagApp, tagLam, tagPi:
		a, sa, err := tr.read()
		if err != nil {
			return nil, 0, err
		}
		b, sb, err := tr.read()
		if err != nil {
			return nil, 0, err
		}
		size = satAdd(size, satAdd(sa, sb))
		switch tag {
		case tagApp:
			t = lf.App{F: a, X: b}
		case tagLam:
			t = lf.Lam{A: a, M: b}
		default:
			t = lf.Pi{A: a, B: b}
		}
	case tagSortType:
		t = lf.SType
	case tagSortKind:
		t = lf.SKind
	default:
		return nil, 0, fmt.Errorf("pccbin: unknown term tag %d", tag)
	}
	tr.table = append(tr.table, t)
	tr.sizes = append(tr.sizes, size)
	return t, size, nil
}

// satAdd is a + b for non-negative a and b, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// TreeEncodedSize returns the number of bytes the term would occupy
// without DAG sharing — the naive tree encoding. Used by the ablation
// benchmarks to quantify what hash-consing buys (§2.3: "we have
// implemented several optimizations in the representation of the
// proofs").
func TreeEncodedSize(t lf.Term) int {
	var uv = func(v uint64) int {
		n := 1
		for v >= 0x80 {
			v >>= 7
			n++
		}
		return n
	}
	switch t := t.(type) {
	case lf.Konst:
		return 1 + uv(64) // tag + typical symbol index width
	case lf.Bound:
		return 1 + uv(uint64(t.Idx))
	case lf.Lit:
		return 1 + uv(t.V)
	case lf.App:
		return 1 + TreeEncodedSize(t.F) + TreeEncodedSize(t.X)
	case lf.Lam:
		return 1 + TreeEncodedSize(t.A) + TreeEncodedSize(t.M)
	case lf.Pi:
		return 1 + TreeEncodedSize(t.A) + TreeEncodedSize(t.B)
	case lf.Sort:
		return 1
	}
	return 0
}

// Marshal serializes the binary and reports its Figure 7 layout. The
// symbol table is (re)computed from the proof and invariants.
func (b *Binary) Marshal() ([]byte, Layout, error) {
	b.Symbols = collectSymbols(b)
	sym := make(map[string]int, len(b.Symbols))
	for i, s := range b.Symbols {
		sym[s] = i
	}

	var w bytes.Buffer
	var lay Layout
	w.Write(Magic[:])
	writeUvarint(&w, uint64(len(b.PolicyName)))
	w.WriteString(b.PolicyName)
	writeUvarint(&w, b.SigHash)

	lay.CodeOff = w.Len()
	writeUvarint(&w, uint64(len(b.Code)))
	w.Write(b.Code)
	lay.CodeLen = w.Len() - lay.CodeOff

	lay.RelocOff = w.Len()
	writeUvarint(&w, uint64(len(b.Symbols)))
	for _, s := range b.Symbols {
		writeUvarint(&w, uint64(len(s)))
		w.WriteString(s)
	}
	lay.RelocLen = w.Len() - lay.RelocOff

	tw := &termWriter{buf: &w, sym: sym, seen: map[lf.Term]int{}}

	lay.InvOff = w.Len()
	invs := append([]Invariant(nil), b.Invariants...)
	sort.Slice(invs, func(i, j int) bool { return invs[i].PC < invs[j].PC })
	writeUvarint(&w, uint64(len(invs)))
	for _, inv := range invs {
		writeUvarint(&w, uint64(inv.PC))
		if err := tw.write(inv.Pred); err != nil {
			return nil, Layout{}, err
		}
	}
	lay.InvLen = w.Len() - lay.InvOff

	lay.ProofOff = w.Len()
	if err := tw.write(b.Proof); err != nil {
		return nil, Layout{}, err
	}
	lay.ProofLen = w.Len() - lay.ProofOff
	lay.Total = w.Len()
	return w.Bytes(), lay, nil
}

// Unmarshal parses a PCC binary under the default decode limits. It
// is deliberately paranoid: PCC binaries come from untrusted
// producers.
func Unmarshal(data []byte) (*Binary, error) {
	return UnmarshalWithLimits(data, Limits{})
}

// UnmarshalWithLimits parses a PCC binary with caller-supplied decode
// budgets (zero fields use the package defaults). Budget violations
// are typed LimitErrors matching ErrLimit, so a consumer can count
// them separately from structural malformation.
func UnmarshalWithLimits(data []byte, lim Limits) (*Binary, error) {
	if lim.MaxTermNodes <= 0 {
		lim.MaxTermNodes = maxTermNodes
	}
	if lim.MaxTermDepth <= 0 {
		lim.MaxTermDepth = maxTermDepth
	}
	r := &reader{buf: data}
	magic, err := r.bytes(4)
	if err != nil || !bytes.Equal(magic, Magic[:]) {
		return nil, fmt.Errorf("pccbin: bad magic")
	}
	b := &Binary{}

	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	name, err := r.bytes(int(n))
	if err != nil {
		return nil, err
	}
	b.PolicyName = string(name)

	b.SigHash, err = r.uvarint()
	if err != nil {
		return nil, err
	}

	n, err = r.uvarint()
	if err != nil {
		return nil, err
	}
	code, err := r.bytes(int(n))
	if err != nil {
		return nil, err
	}
	b.Code = append([]byte(nil), code...)

	nSym, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nSym > 1<<16 {
		return nil, fmt.Errorf("pccbin: absurd symbol count %d", nSym)
	}
	for i := uint64(0); i < nSym; i++ {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if l > 256 {
			return nil, fmt.Errorf("pccbin: absurd symbol length %d", l)
		}
		s, err := r.bytes(int(l))
		if err != nil {
			return nil, err
		}
		b.Symbols = append(b.Symbols, string(s))
	}

	nInv, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nInv > 1<<16 {
		return nil, fmt.Errorf("pccbin: absurd invariant count %d", nInv)
	}
	tr := &termReader{
		r: r, syms: b.Symbols,
		budget:   lim.MaxTermNodes,
		maxNodes: lim.MaxTermNodes,
		maxDepth: lim.MaxTermDepth,
	}
	for i := uint64(0); i < nInv; i++ {
		pc, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if pc > uint64(len(b.Code)/4) {
			return nil, fmt.Errorf("pccbin: invariant pc %d beyond code", pc)
		}
		pred, _, err := tr.read()
		if err != nil {
			return nil, err
		}
		b.Invariants = append(b.Invariants, Invariant{PC: int(pc), Pred: pred})
	}

	proofStart := r.pos
	proof, nodes, err := tr.read()
	if err != nil {
		return nil, err
	}
	b.Proof, b.ProofNodes = proof, nodes
	b.ProofBytes = r.pos - proofStart
	if r.pos != len(data) {
		return nil, fmt.Errorf("pccbin: %d trailing bytes", len(data)-r.pos)
	}
	return b, nil
}

// DecodeInvariants converts the invariant table to the map form the VC
// generator consumes.
func (b *Binary) DecodeInvariants() (map[int]logic.Pred, error) {
	if len(b.Invariants) == 0 {
		return nil, nil
	}
	out := make(map[int]logic.Pred, len(b.Invariants))
	for _, inv := range b.Invariants {
		p, err := lf.DecodePred(inv.Pred)
		if err != nil {
			return nil, fmt.Errorf("pccbin: invariant at pc %d: %w", inv.PC, err)
		}
		out[inv.PC] = p
	}
	return out, nil
}
