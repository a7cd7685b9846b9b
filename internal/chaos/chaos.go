// Package chaos is a fault-injection harness for the PCC validation
// path. It takes known-good certified binaries ("bases"), derives
// adversarial mutants from them — random corruption, structural
// surgery on the proof, and hand-crafted resource bombs — and feeds
// each mutant to a validation target, checking the two invariants the
// whole architecture stands on:
//
//  1. No escaped panics: whatever bytes arrive, validation returns a
//     verdict. A crash in the consumer is a kernel crash.
//  2. No unsound accepts: a mutant may validate only if it is
//     byte-identical to a certified base, or is itself a provably safe
//     program. Random corruption occasionally lands on the latter —
//     e.g. a bit-flip in a constant the safety predicate never
//     mentions yields a different filter whose recomputed VC the
//     original proof still proves. The harness distinguishes the two
//     by testing the Safety Theorem directly: every non-identical
//     accept is re-derived with the reference validator and executed
//     on the fully checked abstract machine over random packets, where
//     any unsafe access faults. A disagreement or a fault is an
//     unsound accept — the soundness half of the paper's Safety
//     Theorem, tested from the adversary's side.
//
// The harness is deterministic per seed, so a violating trial can be
// replayed exactly. It backs the chaos invariant tests
// (chaos_test.go, internal/kernel) and `pccload -chaos`.
package chaos

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/machine"
	"repro/internal/pccbin"
	"repro/internal/policy"
)

// Base is one certified binary mutants are derived from.
type Base struct {
	Name   string
	Binary []byte
	Policy *policy.Policy
}

// PaperBases certifies the harness's standard corpus: the four paper
// filters and the looping IP-checksum filter (the invariant-table code
// path).
func PaperBases() ([]Base, error) {
	pol := policy.PacketFilter()
	var bases []Base
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), pol, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos: certifying %v: %w", f, err)
		}
		bases = append(bases, Base{Name: f.String(), Binary: cert.Binary, Policy: pol})
	}
	cert, err := pcc.Certify(filters.SrcChecksum, pol,
		map[string]logic.Pred{"loop": filters.ChecksumInvariant()})
	if err != nil {
		return nil, fmt.Errorf("chaos: certifying checksum: %w", err)
	}
	return append(bases, Base{Name: "checksum", Binary: cert.Binary, Policy: pol}), nil
}

// codeVariantSite is, per paper filter, the source line holding the
// immediate a code-only variant rewrites: the value the filter
// compares against or ORs in, which no safety condition mentions.
var codeVariantSite = map[filters.Filter]struct{ old, repl string }{
	filters.Filter1: {"CMPEQ  r4, 8, r0", "CMPEQ  r4, %d, r0"},
	filters.Filter2: {"BIS    r5, 0x80, r5", "BIS    r5, %d, r5"},
	filters.Filter3: {"BIS    r3, 0xC0, r3", "BIS    r3, %d, r3"},
	filters.Filter4: {"MOVI   0x5000, r5", "MOVI   %d, r5"},
}

// CodeVariants certifies n code-only variants of each paper filter,
// in filter order: the filter's source with its compared immediate
// rewritten to 0x11, 0x12, .... Variants are different programs with
// the same safety predicate, so each carries its filter's proof
// bytes (symbols, invariants and proof) under new code: accepted
// inputs by construction, unlike mutants. A Base's name is the
// filter's with the immediate appended.
func CodeVariants(n int) ([]Base, error) {
	pol := policy.PacketFilter()
	var out []Base
	for _, f := range filters.All {
		site := codeVariantSite[f]
		src := filters.Source(f)
		if strings.Count(src, site.old) != 1 {
			return nil, fmt.Errorf("chaos: %v lost its immediate %q", f, site.old)
		}
		for i := 0; i < n; i++ {
			k := 0x11 + i
			vsrc := strings.Replace(src, site.old, fmt.Sprintf(site.repl, k), 1)
			cert, err := pcc.Certify(vsrc, pol, nil)
			if err != nil {
				return nil, fmt.Errorf("chaos: certifying %v variant %#x: %w", f, k, err)
			}
			out = append(out, Base{Name: fmt.Sprintf("%v/%#x", f, k), Binary: cert.Binary, Policy: pol})
		}
	}
	return out, nil
}

// Mutator derives one adversarial mutant from a base binary.
type Mutator struct {
	Name string
	Fn   func(rng *rand.Rand, base Base) []byte
}

// Mutators returns the mutator set the seeded differential tests draw
// from: random corruption (bitflip, truncate, swap), proof surgery
// (graft), and the resource bombs the checkers' own budgets stop
// (depthbomb, dagbomb, ctxbomb). Those tests pick mutators by index,
// so a new entry would change which mutants they check, and they run
// the VC generator without a budget; Run also draws the newer bombs
// (allMutators).
func Mutators() []Mutator {
	return []Mutator{
		{"bitflip", bitflip},
		{"truncate", truncate},
		{"swap", sectionSwap},
		{"graft", graft},
		{"depthbomb", depthBomb},
		{"dagbomb", dagBomb},
		{"ctxbomb", ctxBomb},
	}
}

// allMutators is Mutators and the bombs only the consumer's hardening
// stops: mismatchbomb, whose type error only the capped rendering
// keeps small, and vcbomb, whose VC only a generation budget bounds.
// Run draws from these.
func allMutators() []Mutator {
	return append(Mutators(), Mutator{"mismatchbomb", mismatchBomb}, Mutator{"vcbomb", vcBomb})
}

// bitflip flips 1–8 random bits anywhere in the binary.
func bitflip(rng *rand.Rand, base Base) []byte {
	m := append([]byte(nil), base.Binary...)
	for n := 1 + rng.Intn(8); n > 0; n-- {
		i := rng.Intn(len(m))
		m[i] ^= 1 << rng.Intn(8)
	}
	return m
}

// truncate drops at least one trailing byte.
func truncate(rng *rand.Rand, base Base) []byte {
	keep := rng.Intn(len(base.Binary)) // 0 .. len-1
	return append([]byte(nil), base.Binary[:keep]...)
}

// sectionSwap exchanges two equally sized ranges, shuffling content
// across section boundaries without changing the length.
func sectionSwap(rng *rand.Rand, base Base) []byte {
	m := append([]byte(nil), base.Binary...)
	if len(m) < 4 {
		return m
	}
	l := 1 + rng.Intn(min(32, len(m)/2))
	a := rng.Intn(len(m) - 2*l + 1)
	b := a + l + rng.Intn(len(m)-a-2*l+1)
	tmp := append([]byte(nil), m[a:a+l]...)
	copy(m[a:a+l], m[b:b+l])
	copy(m[b:b+l], tmp)
	return m
}

// graft performs structural surgery on the proof: the binary is
// re-marshaled with its proof replaced by one of its own subterms, by
// an invariant predicate, or by the trivial proof constant. The result
// is a well-formed binary whose proof no longer proves the recomputed
// safety predicate — the "plausible forgery" class, which dies in the
// LF checker rather than the decoder.
func graft(rng *rand.Rand, base Base) []byte {
	bin, err := pccbin.Unmarshal(base.Binary)
	if err != nil {
		return bitflip(rng, base)
	}
	switch rng.Intn(3) {
	case 0: // graft a random subterm of the proof over the proof
		subs := subterms(bin.Proof, 4096)
		if len(subs) == 0 {
			return bitflip(rng, base)
		}
		bin.Proof = subs[rng.Intn(len(subs))]
	case 1: // graft an invariant predicate (or tt) over the proof
		if len(bin.Invariants) > 0 {
			bin.Proof = bin.Invariants[rng.Intn(len(bin.Invariants))].Pred
		} else {
			bin.Proof = lf.Konst{Name: lf.CTrueI}
		}
	default: // the lazy forger: claim truth proves everything
		bin.Proof = lf.Konst{Name: lf.CTrueI}
	}
	out, _, err := bin.Marshal()
	if err != nil {
		return bitflip(rng, base)
	}
	return out
}

// subterms collects up to max strict subterms of t (the root itself is
// excluded — grafting the root would reproduce the original binary).
func subterms(t lf.Term, max int) []lf.Term {
	var out []lf.Term
	var walk func(t lf.Term, root bool)
	walk = func(t lf.Term, root bool) {
		if len(out) >= max {
			return
		}
		if !root {
			out = append(out, t)
		}
		switch t := t.(type) {
		case lf.App:
			walk(t.F, false)
			walk(t.X, false)
		case lf.Lam:
			walk(t.A, false)
			walk(t.M, false)
		case lf.Pi:
			walk(t.A, false)
			walk(t.B, false)
		}
	}
	walk(t, true)
	return out
}

// Wire-format constants, mirroring internal/pccbin's unexported term
// tags (TestBombEncoding cross-checks them against a real decode, so
// drift fails loudly).
const (
	tagKonst    = 0
	tagApp      = 3
	tagLam      = 4
	tagPi       = 5
	tagSortType = 6
	tagRef      = 8
)

// header rebuilds the binary prefix up to (and excluding) the symbol
// table: magic, policy name, rule-set fingerprint, and the base's own
// native code — everything a bomb needs to reach its target stage.
func header(b *pccbin.Binary) []byte {
	out := []byte{'P', 'C', 'C', '1'}
	out = binary.AppendUvarint(out, uint64(len(b.PolicyName)))
	out = append(out, b.PolicyName...)
	out = binary.AppendUvarint(out, b.SigHash)
	out = binary.AppendUvarint(out, uint64(len(b.Code)))
	out = append(out, b.Code...)
	return out
}

// depthBomb hand-crafts a proof section nesting tens of thousands of
// levels deep: [Lam type [Lam type ... type]]. A recursive decoder
// without an explicit depth budget dies of stack exhaustion here; ours
// must return a typed term_depth rejection. The bytes are built by
// hand because the producer-side Marshal (correctly) cannot build such
// a term without overflowing its own stack.
func depthBomb(rng *rand.Rand, base Base) []byte {
	bin, err := pccbin.Unmarshal(base.Binary)
	if err != nil {
		return bitflip(rng, base)
	}
	out := header(bin)
	out = binary.AppendUvarint(out, 0) // no symbols
	out = binary.AppendUvarint(out, 0) // no invariants
	levels := 1<<14 + rng.Intn(1<<15)
	for i := 0; i < levels; i++ {
		out = append(out, tagLam, tagSortType)
	}
	return append(out, tagSortType)
}

// dagBomb builds the conjunction tower: P₀ = tt, Pᵢ₊₁ = and(Pᵢ, Pᵢ),
// with the perfectly valid proof Qᵢ₊₁ = andi Pᵢ Pᵢ Qᵢ Qᵢ. DAG-encoded,
// the whole thing is a few hundred bytes and decodes within every
// size and depth budget — but the checker's traversal expands the
// sharing, so verifying Q₆₀ costs ~2⁶⁰ inference steps, and the type
// mismatch against the real safety predicate only surfaces at the very
// end. Byte-size limits cannot stop this class; only step fuel does.
// (The checker's memo charges the expanded tree too, but gets to the
// fuel limit in microseconds; ctxBomb is the class it cannot shorten.)
func dagBomb(rng *rand.Rand, base Base) []byte {
	return conjunctionTower(rng, base, 40+rng.Intn(25))
}

// mismatchBomb is the conjunction tower short enough for the default
// step fuel: Q₆ … Q₁₇ take up to 8.9M of its 16.8M steps, the memo
// makes them cheap, and the checker gets to the type mismatch, whose
// inferred operand is a tree of up to 2¹⁷ leaves. Rendering it in full
// for the error cost a gigabyte of allocation at Q₁₇; the rendering
// must stop at its cap instead. Under a lowered step fuel, as in the
// chaos tests, the taller towers die on fuel.
func mismatchBomb(rng *rand.Rand, base Base) []byte {
	return conjunctionTower(rng, base, 6+rng.Intn(12))
}

// conjunctionTower builds the binary of dagBomb and mismatchBomb,
// whose proof is Q_levels.
func conjunctionTower(rng *rand.Rand, base Base, levels int) []byte {
	bin, err := pccbin.Unmarshal(base.Binary)
	if err != nil {
		return bitflip(rng, base)
	}
	out := header(bin)
	syms := []string{lf.CAnd, lf.CAndI, lf.CTT, lf.CTrueI}
	out = binary.AppendUvarint(out, uint64(len(syms)))
	for _, s := range syms {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = binary.AppendUvarint(out, 0) // no invariants

	konst := func(sym int) *bombNode { return &bombNode{tag: tagKonst, sym: sym, idx: -1} }
	app := func(f, x *bombNode) *bombNode { return &bombNode{tag: tagApp, a: f, b: x, idx: -1} }
	and, andi := konst(0), konst(1)
	p, q := konst(2), konst(3) // P₀ = tt, Q₀ = truei
	for i := 0; i < levels; i++ {
		p, q = app(app(and, p), p), app(app(app(app(andi, p), p), q), q)
	}
	w := &bombWriter{buf: out}
	w.emit(q)
	return w.buf
}

// ctxBomb is dagBomb against the checker's memo. Within one check the
// checker reuses the type of a (subterm, binder context) pair, which
// takes dagBomb to the fuel limit in microseconds. Here every copy of
// the previous level's proof sits under its own λ-binder, annotated
// with a distinct (structurally equal) node, so no two occurrences
// share a context:
//
//	A(Q) = impe tt tt (impi tt tt (λ_:pf tt. Q)) truei    : pf tt
//	Qᵢ₊₁ = andel tt tt (andi tt tt A(Qᵢ) A(Qᵢ))          : pf tt
//
// with Q₀ = truei. Nothing is reused, and the checker really walks the
// exponential tree until step fuel stops it.
func ctxBomb(rng *rand.Rand, base Base) []byte {
	bin, err := pccbin.Unmarshal(base.Binary)
	if err != nil {
		return bitflip(rng, base)
	}
	out := header(bin)
	syms := []string{lf.CAndEL, lf.CAndI, lf.CImpE, lf.CImpI, lf.CPf, lf.CTT, lf.CTrueI}
	out = binary.AppendUvarint(out, uint64(len(syms)))
	for _, s := range syms {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = binary.AppendUvarint(out, 0) // no invariants

	konst := func(sym int) *bombNode { return &bombNode{tag: tagKonst, sym: sym, idx: -1} }
	app := func(f *bombNode, xs ...*bombNode) *bombNode {
		for _, x := range xs {
			f = &bombNode{tag: tagApp, a: f, b: x, idx: -1}
		}
		return f
	}
	lam := func(a, m *bombNode) *bombNode { return &bombNode{tag: tagLam, a: a, b: m, idx: -1} }
	andel, andi, impe, impi, pf, tt, truei := konst(0), konst(1), konst(2), konst(3), konst(4), konst(5), konst(6)
	q := truei
	levels := 40 + rng.Intn(25)
	for i := 0; i < levels; i++ {
		arm := func() *bombNode { // fresh nodes, so a fresh binder context
			return app(impe, tt, tt, app(impi, tt, tt, lam(app(pf, tt), q)), truei)
		}
		q = app(andel, tt, tt, app(andi, tt, tt, arm(), arm()))
	}
	w := &bombWriter{buf: out}
	w.emit(q)
	return w.buf
}

// vcBomb replaces the base's code with a chain whose VC is costly to
// generate, followed by a load through r1: 40–64 instructions that each
// double the VC (MULQ r1, r1, r1 squares r1, and ADDQ r1, r1, r1
// doubles a sum the normalizer re-sorts), or 200–400
// pairs of ADDQ r1, r2, r1 and MULQ r1, r3, r1, whose VC only deepens
// but whose every substitution renormalizes, and renders, each sum on
// the path to r1. The proof does not matter: VC generation runs before
// the LF check, and without a bound on its work the consumer builds a
// tree of up to 2⁶⁴ nodes, or renders for seconds, before any size
// check can see it. The generation budget must stop it on the vc_nodes
// axis.
func vcBomb(rng *rand.Rand, base Base) []byte {
	bin, err := pccbin.Unmarshal(base.Binary)
	if err != nil {
		return bitflip(rng, base)
	}
	var src string
	switch rng.Intn(3) {
	case 0:
		src = strings.Repeat("MULQ r1, r1, r1\n", 40+rng.Intn(25))
	case 1:
		src = strings.Repeat("ADDQ r1, r1, r1\n", 40+rng.Intn(25))
	default:
		src = strings.Repeat("ADDQ r1, r2, r1\nMULQ r1, r3, r1\n", 200+rng.Intn(201))
	}
	src += "LDQ r0, 0(r1)\nRET\n"
	code, err := alpha.Encode(alpha.MustAssemble(src).Prog)
	if err != nil {
		return bitflip(rng, base)
	}
	bin.Code, bin.Invariants = code, nil
	out, _, err := bin.Marshal()
	if err != nil {
		return bitflip(rng, base)
	}
	return out
}

// bombNode is a node of a hand-built proof DAG; emit serializes it in
// the decoder's expected order, back-referencing shared nodes.
type bombNode struct {
	tag  byte
	a, b *bombNode
	sym  int
	idx  int
}

type bombWriter struct {
	buf  []byte
	next int
}

func (w *bombWriter) emit(n *bombNode) {
	if n.idx >= 0 {
		w.buf = append(w.buf, tagRef)
		w.buf = binary.AppendUvarint(w.buf, uint64(n.idx))
		return
	}
	w.buf = append(w.buf, n.tag)
	switch n.tag {
	case tagKonst:
		w.buf = binary.AppendUvarint(w.buf, uint64(n.sym))
	case tagApp, tagLam, tagPi:
		w.emit(n.a)
		w.emit(n.b)
	}
	// The decoder assigns table indexes in completion (post-)order.
	n.idx = w.next
	w.next++
}

// Target submits one mutant to the system under test, returning
// whether it was accepted. The harness fences the call, so a panicking
// target is a violation, not a crash.
type Target func(mutant []byte, base Base) (accepted bool, err error)

// ValidateTarget exercises the pcc validation path directly under the
// given limits (nil = DefaultLimits).
func ValidateTarget(lim *pcc.Limits) Target {
	return func(mutant []byte, base Base) (bool, error) {
		_, _, err := pcc.ValidateCtx(context.Background(), mutant, base.Policy, lim)
		return err == nil, err
	}
}

// Config parameterizes one harness run.
type Config struct {
	// Seed fixes the mutation stream; identical configs replay
	// identically.
	Seed int64
	// Trials is the number of mutants to generate and submit.
	Trials int
	// Mutators restricts the mutator set (nil = all).
	Mutators []Mutator
}

// Violation is one broken invariant: an escaped panic or an accepted
// non-identical mutant.
type Violation struct {
	Trial   int
	Base    string
	Mutator string
	Detail  string
}

// Report summarizes a harness run.
type Report struct {
	Trials int
	// ByMutator counts trials per mutator class.
	ByMutator map[string]int
	// Rejects counts rejections by pcc.RejectReason class.
	Rejects map[string]int
	// IdenticalAccepts counts mutants that were byte-identical to
	// their base and validated — the common legitimate accept.
	IdenticalAccepts int
	// SafeVariantAccepts counts accepted mutants that differ from
	// their base but were independently re-certified and survived
	// checked execution — different programs that are nonetheless
	// provably safe (see vetAccept). Rare, but sound.
	SafeVariantAccepts int
	// Violations lists every broken invariant (empty on a sound run).
	Violations []Violation
}

// Ok reports whether the run upheld both invariants.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// String renders a one-screen summary.
func (r Report) String() string {
	s := fmt.Sprintf("chaos: %d trials, %d identical accepts, %d safe variants, %d violations\n",
		r.Trials, r.IdenticalAccepts, r.SafeVariantAccepts, len(r.Violations))
	var names []string
	for n := range r.ByMutator {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s += fmt.Sprintf("  mutator %-12s %6d trials\n", n, r.ByMutator[n])
	}
	names = names[:0]
	for n := range r.Rejects {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s += fmt.Sprintf("  reject  %-12s %6d\n", n, r.Rejects[n])
	}
	for _, v := range r.Violations {
		s += fmt.Sprintf("  VIOLATION trial %d (%s/%s): %s\n", v.Trial, v.Base, v.Mutator, v.Detail)
	}
	return s
}

// Run generates cfg.Trials mutants from the bases and submits each to
// the target, fenced. It never panics; every invariant breach lands in
// the report.
func Run(bases []Base, target Target, cfg Config) Report {
	rng := rand.New(rand.NewSource(cfg.Seed))
	muts := cfg.Mutators
	if len(muts) == 0 {
		muts = allMutators()
	}
	rep := Report{
		Trials:    cfg.Trials,
		ByMutator: map[string]int{},
		Rejects:   map[string]int{},
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		base := bases[rng.Intn(len(bases))]
		m := muts[rng.Intn(len(muts))]
		rep.ByMutator[m.Name]++
		mutant := m.Fn(rng, base)
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.Violations = append(rep.Violations, Violation{
						Trial: trial, Base: base.Name, Mutator: m.Name,
						Detail: fmt.Sprintf("escaped panic: %v", r),
					})
				}
			}()
			accepted, err := target(mutant, base)
			switch {
			case accepted && bytes.Equal(mutant, base.Binary):
				rep.IdenticalAccepts++
			case accepted:
				if verr := vetAccept(rng, mutant, base); verr != nil {
					rep.Violations = append(rep.Violations, Violation{
						Trial: trial, Base: base.Name, Mutator: m.Name,
						Detail: fmt.Sprintf("UNSOUND ACCEPT: %v", verr),
					})
				} else {
					rep.SafeVariantAccepts++
				}
			default:
				rep.Rejects[pcc.RejectReason(err)]++
			}
		}()
	}
	return rep
}

// vetAccept adjudicates an accepted mutant that is not byte-identical
// to its base. PCC's Safety Theorem promises safety, not byte
// identity: a mutation can land on a different program whose
// recomputed VC the original proof still proves (observed in practice
// as a bit-flip in an LDA immediate the safety predicate never
// mentions — a behaviorally different but equally safe filter). The
// harness therefore re-derives the verdict with the reference
// validator and then tests the theorem empirically, executing the
// accepted extension on the fully checked abstract machine over random
// packets, where any out-of-bounds or misaligned access faults. A
// reference disagreement or a checked-execution fault is a genuine
// soundness violation; a clean bill is a safe variant.
func vetAccept(rng *rand.Rand, mutant []byte, base Base) error {
	ext, _, err := pcc.ValidateCtx(context.Background(), mutant, base.Policy, nil)
	if err != nil {
		return fmt.Errorf("target accepted a mutant the reference validator rejects: %w", err)
	}
	const packetBase, scratchBase = 0x10000, 0x20000
	for probe := 0; probe < 8; probe++ {
		// MinPacket..256 bytes, word-aligned: the policy's precondition
		// guarantees a validated filter at least MinPacket bytes.
		plen := policy.MinPacket + 8*rng.Intn((256-policy.MinPacket)/8+1)
		pkt := machine.NewRegion("packet", packetBase, plen, false)
		rng.Read(pkt.Bytes())
		mem := machine.NewMemory()
		mem.MustAddRegion(pkt)
		mem.MustAddRegion(machine.NewRegion("scratch", scratchBase, policy.ScratchLen, true))
		s := &machine.State{Mem: mem}
		s.R[policy.RegPacket] = packetBase
		s.R[policy.RegLen] = uint64(plen)
		s.R[policy.RegScratch] = scratchBase
		if _, err := ext.RunChecked(s, 1<<20); err != nil {
			return fmt.Errorf("checked execution faulted on probe %d: %w", probe, err)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
