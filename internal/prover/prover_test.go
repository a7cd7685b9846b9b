package prover

import (
	"strings"
	"testing"

	"repro/internal/alpha"
	"repro/internal/logic"
	"repro/internal/policy"
	"repro/internal/vcgen"
)

// certify runs the full producer pipeline on a source program and
// checks the proof with the independent checker.
func certify(t *testing.T, src string, pol *policy.Policy, inv map[int]logic.Pred) Proof {
	t.Helper()
	a, err := alpha.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, inv)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(res.SP)
	if err != nil {
		t.Fatalf("prove failed: %v\nSP:\n%s", err, logic.Pretty(res.SP))
	}
	if err := Check(proof, res.SP); err != nil {
		t.Fatalf("proof does not check: %v", err)
	}
	return proof
}

func TestCertifyResourceAccess(t *testing.T) {
	proof := certify(t, `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
	`, policy.ResourceAccess(), nil)
	if proof.Size() < 5 {
		t.Errorf("suspiciously small proof: %d nodes", proof.Size())
	}
}

func TestCertifyPacketReadConstantOffsets(t *testing.T) {
	// Reads at constant offsets 0, 8, 16 need instantiation of the
	// quantified precondition plus arithmetic 16 < r2 from 64 ≤ r2.
	certify(t, `
        LDQ  r4, 0(r1)
        LDQ  r5, 8(r1)
        LDQ  r6, 16(r1)
        CLR  r0
        RET
	`, policy.PacketFilter(), nil)
}

func TestCertifyScratchWrite(t *testing.T) {
	certify(t, `
        MOV  1, r4
        STQ  r4, 0(r3)
        STQ  r4, 8(r3)
        CLR  r0
        RET
	`, policy.PacketFilter(), nil)
}

func TestCertifyDataDependentOffset(t *testing.T) {
	// The Filter 4 pattern: a load at an offset computed from packet
	// contents, bounds-checked at run time as part of the algorithm.
	certify(t, `
        LDQ    r4, 8(r1)        ; word containing the IP header length
        SRL    r4, 46, r4
        AND    r4, 60, r4       ; (p[8] >> 46) & 60
        ADDQ   r4, 16, r4       ; byte offset of TCP header
        AND    r4, 0xF8, r5     ; aligned word offset (mask 248 keeps bits 3..7)
        CMPULT r5, r2, r6
        BEQ    r6, reject       ; offset beyond packet: reject
        ADDQ   r1, r5, r7
        LDQ    r8, 0(r7)        ; safe: r5 < r2, r5 aligned
        MOV    1, r0
        RET
reject: CLR   r0
        RET
	`, policy.PacketFilter(), nil)
}

func TestCertifyGuardedWriteViaTag(t *testing.T) {
	// Branch hypotheses: write only under the tag≠0 guard.
	certify(t, `
        LDQ   r1, 0(r0)
        BEQ   r1, skip
        LDQ   r2, 8(r0)
        ADDQ  r2, 1, r2
        STQ   r2, 8(r0)
skip:   RET
	`, policy.ResourceAccess(), nil)
}

func TestCertifyLoopWithInvariant(t *testing.T) {
	// A checksum-style loop over the packet: r4 is the byte offset,
	// r5 the accumulator. The invariant carries the parts of the
	// precondition the loop body needs, plus alignment of r4.
	src := `
        CLR    r4
        CLR    r5
        CMPULT r4, r2, r6
        BEQ    r6, done
loop:   ADDQ   r1, r4, r7
        LDQ    r8, 0(r7)
        ADDQ   r5, r8, r5
        ADDQ   r4, 8, r4
        CMPULT r4, r2, r6
        BNE    r6, loop
done:   MOV    r5, r0
        RET
	`
	a := alpha.MustAssemble(src)
	pol := policy.PacketFilter()
	loopPC := a.Labels["loop"]
	inv := logic.Conj(
		// The loop needs the packet-read clause and the bound on r2.
		logic.All("i", logic.Implies(
			logic.Conj(
				logic.Ult(logic.V("i"), logic.V("r2")),
				logic.Eq(logic.And2(logic.V("i"), logic.C(7)), logic.C(0)),
			),
			logic.RdP(logic.Add(logic.V("r1"), logic.V("i"))),
		)),
		// Loop-variant facts.
		logic.Ne(logic.Bin{Op: logic.OpCmpUlt, L: logic.V("r4"), R: logic.V("r2")}, logic.C(0)),
		logic.Eq(logic.And2(logic.V("r4"), logic.C(7)), logic.C(0)),
		logic.Eq(logic.V("r7"), logic.Add(logic.V("r1"), logic.V("r4"))),
	)
	// r7 is assigned at the top of the loop body, so the invariant sits
	// at 'loop' where r7's equation is not yet needed... it is simpler
	// to state the invariant without r7 and let the VC substitute:
	inv = logic.Conj(
		logic.All("i", logic.Implies(
			logic.Conj(
				logic.Ult(logic.V("i"), logic.V("r2")),
				logic.Eq(logic.And2(logic.V("i"), logic.C(7)), logic.C(0)),
			),
			logic.RdP(logic.Add(logic.V("r1"), logic.V("i"))),
		)),
		logic.Ne(logic.Bin{Op: logic.OpCmpUlt, L: logic.V("r4"), R: logic.V("r2")}, logic.C(0)),
		logic.Eq(logic.And2(logic.V("r4"), logic.C(7)), logic.C(0)),
	)
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, map[int]logic.Pred{loopPC: inv})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(res.SP)
	if err != nil {
		t.Fatalf("prove failed: %v\nSP:\n%s", err, logic.Pretty(res.SP))
	}
	if err := Check(proof, res.SP); err != nil {
		t.Fatalf("check failed: %v", err)
	}
}

func TestProveFailsOnUnsafeProgram(t *testing.T) {
	// Reading beyond the precondition's guarantees must not certify.
	a := alpha.MustAssemble(`
        LDQ  r1, 16(r0)      ; precondition only covers r0 and r0+8
        RET
	`)
	pol := policy.ResourceAccess()
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(res.SP); err == nil {
		t.Fatal("unsafe program certified")
	}
}

func TestProveFailsOnUncheckedDataOffset(t *testing.T) {
	// Filter 4's pattern *without* the bounds check must fail.
	a := alpha.MustAssemble(`
        LDQ    r4, 8(r1)
        SRL    r4, 46, r4
        AND    r4, 60, r4
        ADDQ   r4, 16, r4
        AND    r4, 0xF8, r5
        ADDQ   r1, r5, r7
        LDQ    r8, 0(r7)
        RET
	`)
	pol := policy.PacketFilter()
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(res.SP); err == nil {
		t.Fatal("missing bounds check certified")
	}
}

func TestProveFailsOnUnalignedScratchWrite(t *testing.T) {
	a := alpha.MustAssemble(`
        STQ  r4, 4(r3)
        RET
	`)
	pol := policy.PacketFilter()
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(res.SP); err == nil {
		t.Fatal("unaligned write certified")
	}
}

func TestProveFailsOnWriteToPacket(t *testing.T) {
	a := alpha.MustAssemble(`
        STQ  r4, 0(r1)
        RET
	`)
	pol := policy.PacketFilter()
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(res.SP); err == nil {
		t.Fatal("write to read-only packet certified")
	}
}

func TestCheckerRejectsBogusProofs(t *testing.T) {
	goal := logic.RdP(logic.V("r0"))
	cases := []Proof{
		TrueI{},
		Hyp{"nope"},
		Ground{Goal: goal},
		Conv{To: goal, P: TrueI{}},
		Axiom{Name: "no_such_axiom"},
		Axiom{Name: "lt_le_trans", Args: []logic.Expr{logic.C(1)}},
		AndEL{TrueI{}},
		ImpE{TrueI{}, TrueI{}},
		AllE{All: TrueI{}, Inst: logic.C(0)},
	}
	for i, p := range cases {
		if err := Check(p, goal); err == nil {
			t.Errorf("case %d: bogus proof accepted", i)
		}
	}
}

func TestCheckerGroundEvaluation(t *testing.T) {
	ok := Ground{Goal: logic.Ult(logic.C(8), logic.C(64))}
	if err := Check(ok, logic.Ult(logic.C(8), logic.C(64))); err != nil {
		t.Errorf("true ground fact rejected: %v", err)
	}
	bad := Ground{Goal: logic.Ult(logic.C(64), logic.C(8))}
	if err := Check(bad, logic.Ult(logic.C(64), logic.C(8))); err == nil {
		t.Error("false ground fact accepted")
	}
}

func TestCheckerEigenvariableCondition(t *testing.T) {
	// ⊢ rd(x) ⇒ ∀x. rd(x) must NOT check: x is free in the hypothesis.
	bad := ImpI{
		Name: "h",
		Ante: logic.RdP(logic.V("x")),
		Body: AllI{Var: "x", Body: Hyp{"h"}},
	}
	goal := logic.Implies(logic.RdP(logic.V("x")), logic.All("x", logic.RdP(logic.V("x"))))
	if err := Check(bad, goal); err == nil {
		t.Fatal("eigenvariable violation accepted")
	}
}

func TestAxiomSoundnessByEvaluation(t *testing.T) {
	// Every axiom schema must be valid in the 64-bit model: sample many
	// variable assignments and check premises ⇒ conclusion. Memory
	// axioms are excluded (sel/upd are not ground-evaluable).
	rng := newSplitMix(0xfeed)
	checked := 0
	for name, s := range logic.Axioms {
		// Axioms over the uninterpreted rd/wr/sel/upd symbols are not
		// ground-evaluable; they are justified by the memory model
		// directly (and exercised by the machine tests).
		if !schemaEvaluable(s) {
			continue
		}
		checked++
		for trial := 0; trial < 20000; trial++ {
			env := map[string]uint64{}
			for _, p := range s.Params {
				switch rng.next() % 4 {
				case 0:
					env[p] = rng.next() % 16
				case 1:
					env[p] = ^uint64(0) - rng.next()%16
				default:
					env[p] = rng.next()
				}
			}
			premsHold := true
			for _, prem := range s.Prems {
				v, ok := logic.EvalPred(prem, env)
				if !ok {
					t.Fatalf("axiom %s: premise not evaluable", name)
				}
				if !v {
					premsHold = false
					break
				}
			}
			if !premsHold {
				continue
			}
			v, ok := logic.EvalPred(s.Concl, env)
			if !ok {
				t.Fatalf("axiom %s: conclusion not evaluable", name)
			}
			if !v {
				t.Fatalf("axiom %s UNSOUND at %v", name, env)
			}
		}
	}
	if checked < 15 {
		t.Errorf("only %d evaluable axioms fuzzed; expected most of the rule set", checked)
	}
}

// schemaEvaluable reports whether every premise and the conclusion of
// a schema are ground-evaluable predicates.
func schemaEvaluable(s *logic.Schema) bool {
	env := map[string]uint64{}
	for _, p := range s.Params {
		env[p] = 1
	}
	if _, ok := logic.EvalPred(s.Concl, env); !ok {
		return false
	}
	for _, prem := range s.Prems {
		if _, ok := logic.EvalPred(prem, env); !ok {
			return false
		}
	}
	return true
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestProofSizeAccounting(t *testing.T) {
	p := AndI{TrueI{}, ImpI{Name: "h", Ante: logic.True, Body: Hyp{"h"}}}
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
}

func TestInferExposed(t *testing.T) {
	p := AndI{TrueI{}, TrueI{}}
	got, err := Infer(p)
	if err != nil {
		t.Fatal(err)
	}
	if !logic.PredEqual(got, logic.And{L: logic.True, R: logic.True}) {
		t.Fatalf("Infer = %s", got)
	}
}

func TestFormatFigure6Style(t *testing.T) {
	// The §2.2 proof, rendered as a Figure 6-style tree: it must show
	// the characteristic inferences — implication introduction of the
	// precondition, hypothesis use for the tag test, conjunction
	// introductions for the rd/wr obligations.
	proof := certify(t, `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
	`, policy.ResourceAccess(), nil)
	out := Format(proof)
	for _, frag := range []string{"all_i", "imp_i", "and_i", "rd(r0)", "wr((r0 + 8))"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted proof missing %q:\n%s", frag, out)
		}
	}
}

func TestSimplifyPreservesValidity(t *testing.T) {
	pol := policy.PacketFilter()
	for _, src := range []string{
		"LDQ r4, 0(r1)\nLDQ r5, 8(r1)\nCLR r0\nRET",
		`
        LDQ    r4, 8(r1)
        SRL    r4, 46, r4
        AND    r4, 60, r4
        ADDQ   r4, 16, r4
        AND    r4, 0xF8, r5
        CMPULT r5, r2, r6
        BEQ    r6, out
        ADDQ   r1, r5, r6
        LDQ    r0, 0(r6)
out:    RET`,
	} {
		a := alpha.MustAssemble(src)
		res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(res.SP)
		if err != nil {
			t.Fatal(err)
		}
		simp := Simplify(proof)
		if err := Check(simp, res.SP); err != nil {
			t.Fatalf("simplified proof no longer checks: %v", err)
		}
		if simp.Size() > proof.Size() {
			t.Errorf("Simplify grew the proof: %d -> %d", proof.Size(), simp.Size())
		}
	}
}

func TestSimplifyDropsIdentityConv(t *testing.T) {
	inner := Ground{Goal: logic.Ult(logic.C(1), logic.C(2))}
	p := Conv{To: logic.Ult(logic.C(1), logic.C(2)), P: inner}
	s := Simplify(p)
	if _, still := s.(Conv); still {
		t.Fatalf("identity conversion survived: %#v", s)
	}
	if err := Check(s, logic.Ult(logic.C(1), logic.C(2))); err != nil {
		t.Fatal(err)
	}
}

func TestSimplifyProjectsPairs(t *testing.T) {
	pair := AndI{TrueI{}, Ground{Goal: logic.Ult(logic.C(1), logic.C(2))}}
	if got := Simplify(AndEL{pair}); got != (TrueI{}) {
		t.Fatalf("and_el(and_i) not projected: %#v", got)
	}
	if got := Simplify(AndER{pair}); got != (Ground{Goal: logic.Ult(logic.C(1), logic.C(2))}) {
		t.Fatalf("and_er(and_i) not projected: %#v", got)
	}
}

func TestOrGoalsAndCaseSplit(t *testing.T) {
	r0 := logic.V("r0")
	addr8 := logic.Add(r0, logic.C(8))
	cases := []struct {
		name string
		goal logic.Pred
		ok   bool
	}{
		{
			"or intro left",
			logic.Implies(logic.RdP(r0), logic.Or{L: logic.RdP(r0), R: logic.WrP(r0)}),
			true,
		},
		{
			"or intro right",
			logic.Implies(logic.WrP(r0), logic.Or{L: logic.RdP(addr8), R: logic.WrP(r0)}),
			true,
		},
		{
			"case split with rd-from-wr",
			logic.Implies(
				logic.Or{L: logic.WrP(r0), R: logic.WrP(addr8)},
				logic.Or{L: logic.RdP(r0), R: logic.RdP(addr8)},
			),
			true,
		},
		{
			"case split both branches same atom",
			logic.Implies(
				logic.Or{L: logic.And{L: logic.RdP(r0), R: logic.WrP(addr8)},
					R: logic.And{L: logic.RdP(r0), R: logic.WrP(r0)}},
				logic.RdP(r0),
			),
			true,
		},
		{
			"unprovable disjunction",
			logic.Or{L: logic.RdP(r0), R: logic.WrP(r0)},
			false,
		},
		{
			"ex falso from false hypothesis",
			logic.Implies(logic.False, logic.WrP(r0)),
			true,
		},
		{
			"ex falso from contradictory branch",
			// 1 = 0 normalizes to false, so the hypothesis context is
			// absurd and anything follows.
			logic.Implies(logic.Eq(logic.C(1), logic.C(0)), logic.RdP(r0)),
			true,
		},
	}
	for _, c := range cases {
		goal := logic.AllOf(logic.SortedFreeVars(c.goal), c.goal)
		proof, err := Prove(goal)
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: proved unprovable goal", c.name)
			}
			continue
		}
		if err := Check(proof, goal); err != nil {
			t.Errorf("%s: proof does not check: %v", c.name, err)
		}
	}
}

func TestCheckerOrRules(t *testing.T) {
	rd := logic.RdP(logic.V("r0"))
	wr := logic.WrP(logic.V("r0"))
	or := logic.Or{L: rd, R: wr}

	// Well-formed case analysis.
	good := ImpI{Name: "d", Ante: or, Body: OrE{
		Disj: Hyp{"d"}, Name: "h",
		Left:  OrIL{Right: wr, P: Hyp{"h"}},
		Right: OrIR{Left: rd, P: Hyp{"h"}},
	}}
	if err := Check(good, logic.Implies(or, or)); err != nil {
		t.Fatalf("good or proof rejected: %v", err)
	}

	// Branches proving different predicates must be rejected.
	bad := ImpI{Name: "d", Ante: or, Body: OrE{
		Disj: Hyp{"d"}, Name: "h",
		Left:  Hyp{"h"}, // proves rd
		Right: Hyp{"h"}, // proves wr — mismatch
	}}
	if err := Check(bad, logic.Implies(or, rd)); err == nil {
		t.Fatal("mismatched or_e branches accepted")
	}

	// false_e must demand an actual proof of false.
	if err := Check(FalseE{Goal: rd, P: TrueI{}}, rd); err == nil {
		t.Fatal("false_e over true accepted")
	}
}
