package lf

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// Signature is the published LF signature: the object logic's syntax
// and proof rules. It is part of the safety policy; producer and
// consumer must agree on it. A signature is immutable once built, so
// its digest is computed once, on first use.
type Signature struct {
	types map[string]Term // constant name -> type (or kind)
	order []string        // deterministic ordering for the binary codec

	digestOnce sync.Once
	digested   atomic.Bool // set once the digest is computed; declare panics after
	digest     [sha256.Size]byte
}

// Digest returns a SHA-256 digest of the signature's content: the
// constants, their order, and their types, length-framed so distinct
// signatures never share a serialization. Safety-relevant identity —
// the proof-cache key in internal/kernel keys on it via pcc.Keyer —
// must use this full digest. It is computed on the first call and
// memoized; concurrent callers all see the same value.
func (s *Signature) Digest() [sha256.Size]byte {
	s.digestOnce.Do(func() {
		s.digest = s.computeDigest()
		s.digested.Store(true)
	})
	return s.digest
}

func (s *Signature) computeDigest() [sha256.Size]byte {
	h := sha256.New()
	writeStr := func(str string) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(str)))
		h.Write(buf[:])
		io.WriteString(h, str)
	}
	for _, name := range s.order {
		writeStr(name)
		writeStr(s.types[name].String())
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// Fingerprint returns the first 64 bits of Digest. Producer and
// consumer embed and check it in PCC binaries, so a rule-set mismatch
// (say, a consumer that dropped an axiom) is detected with a precise
// error before any type checking. It is a diagnostic only: validation
// re-checks the whole proof against the consumer's own signature, so
// nothing safety-relevant rests on this 64-bit value.
func (s *Signature) Fingerprint() uint64 {
	d := s.Digest()
	return binary.LittleEndian.Uint64(d[:8])
}

// Lookup returns the type of a signature constant.
func (s *Signature) Lookup(name string) (Term, bool) {
	t, ok := s.types[name]
	return t, ok
}

// Names returns the constant names in deterministic order.
func (s *Signature) Names() []string { return s.order }

func (s *Signature) declare(name string, ty Term) {
	if s.digested.Load() {
		panic(fmt.Sprintf("lf: constant %q declared after the signature digest was computed", name))
	}
	if _, dup := s.types[name]; dup {
		panic(fmt.Sprintf("lf: duplicate signature constant %q", name))
	}
	s.types[name] = ty
	s.order = append(s.order, name)
}

// Names of the core signature constants.
const (
	CWord   = "word"
	CExp    = "exp"
	CPred   = "pred"
	CPf     = "pf"
	CGround = "ground"
	CNormEq = "norm_eq"
	CCst    = "cst"
	CSel    = "sel"
	CUpd    = "upd"
	CTT     = "tt"
	CFF     = "ff"
	CAnd    = "and"
	COr     = "or"
	CImp    = "imp"
	CForall = "forall"
	CRd     = "rd"
	CWr     = "wr"
	CTrueI  = "truei"
	CAndI   = "andi"
	CAndEL  = "andel"
	CAndER  = "ander"
	CImpI   = "impi"
	CImpE   = "impe"
	CAllI   = "foralli"
	CAllE   = "foralle"
	COrIL   = "ori1"
	COrIR   = "ori2"
	COrE    = "ore"
	CFalseE = "falsee"
	CGr     = "gr" // primitive: ground p, checked by evaluation
	CGArith = "garith"
	CNrm    = "nrm" // primitive: norm_eq p q, checked by the normalizer
	CConvP  = "convp"
)

// BinOpConst returns the signature constant name of a binary
// expression operator.
func BinOpConst(op logic.BinOp) string {
	switch op {
	case logic.OpAdd:
		return "e_add"
	case logic.OpSub:
		return "e_sub"
	case logic.OpMul:
		return "e_mul"
	case logic.OpAnd:
		return "e_and"
	case logic.OpOr:
		return "e_or"
	case logic.OpXor:
		return "e_xor"
	case logic.OpShl:
		return "e_shl"
	case logic.OpShr:
		return "e_shr"
	case logic.OpCmpEq:
		return "e_cmpeq"
	case logic.OpCmpUlt:
		return "e_cmpult"
	case logic.OpCmpUle:
		return "e_cmpule"
	case logic.OpCmpSlt:
		return "e_cmpslt"
	}
	panic(fmt.Sprintf("lf: unknown binop %v", op))
}

// CmpOpConst returns the signature constant name of an atomic
// comparison predicate.
func CmpOpConst(op logic.CmpOp) string {
	switch op {
	case logic.CmpEq:
		return "p_eq"
	case logic.CmpNe:
		return "p_ne"
	case logic.CmpUlt:
		return "p_ult"
	case logic.CmpUle:
		return "p_ule"
	case logic.CmpSlt:
		return "p_slt"
	case logic.CmpSle:
		return "p_sle"
	}
	panic(fmt.Sprintf("lf: unknown cmpop %v", op))
}

var binOps = []logic.BinOp{
	logic.OpAdd, logic.OpSub, logic.OpMul, logic.OpAnd, logic.OpOr, logic.OpXor,
	logic.OpShl, logic.OpShr, logic.OpCmpEq, logic.OpCmpUlt, logic.OpCmpUle, logic.OpCmpSlt,
}

var cmpOps = []logic.CmpOp{
	logic.CmpEq, logic.CmpNe, logic.CmpUlt, logic.CmpUle, logic.CmpSlt, logic.CmpSle,
}

// StateVars lists the machine-state variable names that may occur free
// in loop invariants: the paper's r0..r10 and rm.
var StateVars = []string{
	"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "rm",
}

// NewSignature builds the standard published signature: syntax, core
// natural-deduction rules, the two primitive judgments, and one
// constant per axiom schema in logic.Axioms.
func NewSignature() *Signature { return NewSignatureWith(nil) }

// NewSignatureWith additionally declares policy-published axiom
// schemas (in sorted order, after the base set), so proofs that use
// them validate and the signature fingerprint covers the policy's
// whole rule set.
func NewSignatureWith(extra map[string]*logic.Schema) *Signature {
	s := &Signature{types: map[string]Term{}}

	exp := Konst{CExp}
	pred := Konst{CPred}
	pf := func(p Term) Term { return App{Konst{CPf}, p} }

	// Syntax.
	s.declare(CWord, SType)
	s.declare(CExp, SType)
	s.declare(CPred, SType)
	s.declare(CPf, Pi{pred, SType})
	s.declare(CGround, Pi{pred, SType})
	s.declare(CNormEq, Pi{pred, Pi{pred, SType}})

	s.declare(CCst, Pi{Konst{CWord}, exp})
	// Machine-state constants: used by loop-invariant predicates, which
	// are open over the registers (r0..r10) and the memory
	// pseudo-register rm.
	for _, r := range StateVars {
		s.declare("reg_"+r, exp)
	}
	for _, op := range binOps {
		s.declare(BinOpConst(op), Pi{exp, Pi{exp, exp}})
	}
	s.declare(CSel, Pi{exp, Pi{exp, exp}})
	s.declare(CUpd, Pi{exp, Pi{exp, Pi{exp, exp}}})

	s.declare(CTT, pred)
	s.declare(CFF, pred)
	s.declare(CAnd, Pi{pred, Pi{pred, pred}})
	s.declare(COr, Pi{pred, Pi{pred, pred}})
	s.declare(CImp, Pi{pred, Pi{pred, pred}})
	for _, op := range cmpOps {
		s.declare(CmpOpConst(op), Pi{exp, Pi{exp, pred}})
	}
	s.declare(CRd, Pi{exp, pred})
	s.declare(CWr, Pi{exp, pred})
	s.declare(CForall, Pi{Pi{exp, pred}, pred})

	// Core rules. In the comments, #n is the de Bruijn index.
	s.declare(CTrueI, pf(Konst{CTT}))
	// andi : {p:pred}{q:pred} pf p -> pf q -> pf (and p q)
	s.declare(CAndI, Pi{pred, Pi{pred,
		Pi{pf(Bound{1}), Pi{pf(Bound{1}),
			pf(Apply(Konst{CAnd}, Bound{3}, Bound{2}))}}}})
	// andel : {p}{q} pf (and p q) -> pf p
	s.declare(CAndEL, Pi{pred, Pi{pred,
		Pi{pf(Apply(Konst{CAnd}, Bound{1}, Bound{0})), pf(Bound{2})}}})
	s.declare(CAndER, Pi{pred, Pi{pred,
		Pi{pf(Apply(Konst{CAnd}, Bound{1}, Bound{0})), pf(Bound{1})}}})
	// impi : {p}{q} (pf p -> pf q) -> pf (imp p q)
	s.declare(CImpI, Pi{pred, Pi{pred,
		Pi{Pi{pf(Bound{1}), pf(Bound{1})},
			pf(Apply(Konst{CImp}, Bound{2}, Bound{1}))}}})
	// impe : {p}{q} pf (imp p q) -> pf p -> pf q
	s.declare(CImpE, Pi{pred, Pi{pred,
		Pi{pf(Apply(Konst{CImp}, Bound{1}, Bound{0})),
			Pi{pf(Bound{2}), pf(Bound{2})}}}})
	// foralli : {f:exp->pred} ({x:exp} pf (f x)) -> pf (forall f)
	s.declare(CAllI, Pi{Pi{exp, pred},
		Pi{Pi{exp, pf(App{Bound{1}, Bound{0}})},
			pf(App{Konst{CForall}, Bound{1}})}})
	// foralle : {f:exp->pred} {e:exp} pf (forall f) -> pf (f e)
	s.declare(CAllE, Pi{Pi{exp, pred}, Pi{exp,
		Pi{pf(App{Konst{CForall}, Bound{1}}),
			pf(App{Bound{2}, Bound{1}})}}})

	// Disjunction and absurdity.
	// ori1 : {p}{q} pf p -> pf (or p q)
	s.declare(COrIL, Pi{pred, Pi{pred,
		Pi{pf(Bound{1}), pf(Apply(Konst{COr}, Bound{2}, Bound{1}))}}})
	// ori2 : {p}{q} pf q -> pf (or p q)
	s.declare(COrIR, Pi{pred, Pi{pred,
		Pi{pf(Bound{0}), pf(Apply(Konst{COr}, Bound{2}, Bound{1}))}}})
	// ore : {p}{q}{r} pf (or p q) -> (pf p -> pf r) -> (pf q -> pf r) -> pf r
	s.declare(COrE, Pi{pred, Pi{pred, Pi{pred,
		Pi{pf(Apply(Konst{COr}, Bound{2}, Bound{1})),
			Pi{Pi{pf(Bound{3}), pf(Bound{2})},
				Pi{Pi{pf(Bound{3}), pf(Bound{3})},
					pf(Bound{3})}}}}}})
	// falsee : {p} pf ff -> pf p
	s.declare(CFalseE, Pi{pred, Pi{pf(Konst{CFF}), pf(Bound{1})}})

	// Primitive decidable judgments and their consumers.
	s.declare(CGr, Pi{pred, App{Konst{CGround}, Bound{0}}})
	s.declare(CGArith, Pi{pred, Pi{App{Konst{CGround}, Bound{0}}, pf(Bound{1})}})
	s.declare(CNrm, Pi{pred, Pi{pred,
		Apply(Konst{CNormEq}, Bound{1}, Bound{0})}})
	s.declare(CConvP, Pi{pred, Pi{pred,
		Pi{Apply(Konst{CNormEq}, Bound{1}, Bound{0}),
			Pi{pf(Bound{2}), pf(Bound{2})}}}})

	// Axiom schemas, in deterministic order.
	names := make([]string, 0, len(logic.Axioms))
	for name := range logic.Axioms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.declare(name, axiomType(logic.Axioms[name]))
	}
	extraNames := make([]string, 0, len(extra))
	for name := range extra {
		extraNames = append(extraNames, name)
	}
	sort.Strings(extraNames)
	for _, name := range extraNames {
		s.declare(name, axiomType(extra[name]))
	}
	return s
}

// axiomType builds Πx1:exp…Πxn:exp. pf prem1 → … → pf concl for an
// axiom schema.
func axiomType(sc *logic.Schema) Term {
	// Parameter name -> de Bruijn level (0 = first parameter).
	levels := map[string]int{}
	for i, p := range sc.Params {
		levels[p] = i
	}
	nParams := len(sc.Params)
	nPrems := len(sc.Prems)

	// Total binders above the conclusion: nParams + nPrems.
	concl := App{Konst{CPf}, encPredAt(sc.Concl, levels, nParams+nPrems)}
	body := Term(concl)
	for i := nPrems - 1; i >= 0; i-- {
		prem := App{Konst{CPf}, encPredAt(sc.Prems[i], levels, nParams+i)}
		body = Pi{prem, body}
	}
	for i := 0; i < nParams; i++ {
		body = Pi{Konst{CExp}, body}
	}
	return body
}

// encPredAt encodes a logic predicate whose free variables are schema
// parameters bound at the given levels, viewed from a term at depth.
func encPredAt(p logic.Pred, levels map[string]int, depth int) Term {
	return encodePredWith(p, func(name string, d int) (Term, error) {
		lvl, ok := levels[name]
		if !ok {
			return nil, fmt.Errorf("lf: unbound schema parameter %q", name)
		}
		return Bound{d - lvl - 1}, nil
	}, depth)
}
