package prover

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// This file implements the automatic theorem prover that certifies
// programs: a syntax-directed prover for the ∧/⇒/∀ skeleton of safety
// predicates with a depth-bounded search for the atomic leaves
// (hypothesis matching, instantiation of quantified preconditions, and
// chaining through the published ordering/masking axioms). It is the
// counterpart of the paper's "admittedly a toy" prover — and like the
// paper's, it certifies every shipped packet filter fully
// automatically, emitting checkable proof terms.

// rule is a hypothesis in clausal view: ∀vars. ante ⇒ concl, any part
// of which may be absent.
type rule struct {
	vars  []string
	ante  logic.Pred // nil when the hypothesis is unconditional
	concl logic.Pred
	proof Proof // proves the original (possibly quantified) hypothesis
}

type context struct {
	rules   []rule
	hypSeq  int
	inPath  map[string]bool // atomic goals on the current search path
	hypVars map[string]bool // free variables of all hypotheses (AllI freshness)
	split   map[int]bool    // disjunctive hypotheses already split on this path
	extra   map[string]*logic.Schema
}

func newContext() *context {
	return &context{inPath: map[string]bool{}, hypVars: map[string]bool{}, split: map[int]bool{}}
}

func (c *context) clone() *context {
	out := &context{
		rules:   append([]rule(nil), c.rules...),
		hypSeq:  c.hypSeq,
		inPath:  c.inPath, // shared: path is global to the search
		hypVars: map[string]bool{},
		split:   map[int]bool{},
		extra:   c.extra,
	}
	for k := range c.hypVars {
		out.hypVars[k] = true
	}
	for k := range c.split {
		out.split[k] = true
	}
	return out
}

// addHyp decomposes a hypothesis into rules, pre-deriving the
// relational facts implied by Alpha compare-instruction results.
func (c *context) addHyp(p logic.Pred, proof Proof) {
	for v := range logic.FreeVars(p) {
		c.hypVars[v] = true
	}
	c.decompose(p, proof)
}

func (c *context) decompose(p logic.Pred, proof Proof) {
	switch p := p.(type) {
	case logic.TruePred:
		// nothing to learn
	case logic.And:
		c.decompose(p.L, AndEL{proof})
		c.decompose(p.R, AndER{proof})
	default:
		c.addRule(p, proof)
	}
}

func (c *context) addRule(p logic.Pred, proof Proof) {
	r := rule{proof: proof}
	body := p
	for {
		fa, ok := body.(logic.Forall)
		if !ok {
			break
		}
		r.vars = append(r.vars, fa.Var)
		body = fa.Body
	}
	if imp, ok := body.(logic.Imp); ok {
		r.ante = imp.L
		body = imp.R
	}
	r.concl = body
	c.rules = append(c.rules, r)

	// Derived facts: only for unconditional, unquantified comparisons.
	if len(r.vars) == 0 && r.ante == nil {
		c.deriveCmpFacts(r)
	}
}

// deriveCmpFacts turns facts about compare-instruction results into the
// relations they decide, and adds symmetric variants of (dis)equalities.
func (c *context) deriveCmpFacts(r rule) {
	cmp, ok := r.concl.(logic.Cmp)
	if !ok {
		return
	}
	zero := logic.Const{Val: 0}
	if rc, isC := cmp.R.(logic.Const); isC && rc.Val == 0 {
		if b, isB := cmp.L.(logic.Bin); isB {
			var axiom string
			switch {
			case b.Op == logic.OpCmpEq && cmp.Op == logic.CmpNe:
				axiom = "cmpeq_true"
			case b.Op == logic.OpCmpEq && cmp.Op == logic.CmpEq:
				axiom = "cmpeq_false"
			case b.Op == logic.OpCmpUlt && cmp.Op == logic.CmpNe:
				axiom = "cmpult_true"
			case b.Op == logic.OpCmpUlt && cmp.Op == logic.CmpEq:
				axiom = "cmpult_false"
			case b.Op == logic.OpCmpUle && cmp.Op == logic.CmpNe:
				axiom = "cmpule_true"
			case b.Op == logic.OpCmpUle && cmp.Op == logic.CmpEq:
				axiom = "cmpule_false"
			}
			if axiom != "" {
				proof := Axiom{Name: axiom, Args: []logic.Expr{b.L, b.R}, Prems: []Proof{r.proof}}
				concl := logic.Axioms[axiom].Instantiate(logic.Axioms[axiom].Concl, []logic.Expr{b.L, b.R})
				c.rules = append(c.rules, rule{concl: concl, proof: proof})
			}
		}
	}
	_ = zero
	switch cmp.Op {
	case logic.CmpEq:
		c.rules = append(c.rules, rule{
			concl: logic.Eq(cmp.R, cmp.L),
			proof: Axiom{Name: "eq_sym", Args: []logic.Expr{cmp.L, cmp.R}, Prems: []Proof{r.proof}},
		})
	case logic.CmpNe:
		c.rules = append(c.rules, rule{
			concl: logic.Ne(cmp.R, cmp.L),
			proof: Axiom{Name: "ne_sym", Args: []logic.Expr{cmp.L, cmp.R}, Prems: []Proof{r.proof}},
		})
	}
}

// ProveError reports a failed proof search with the sub-goal that got
// stuck — the point where the paper's workflow would ask the programmer
// for a new arithmetic axiom.
type ProveError struct {
	Goal logic.Pred
	Why  string
}

// Error implements the error interface.
func (e *ProveError) Error() string {
	return fmt.Sprintf("prover: cannot prove %s (%s)", e.Goal, e.Why)
}

const defaultDepth = 12

// Prove searches for a proof of the (closed) safety predicate goal
// using the base rule set. The returned proof checks against goal with
// Check and, after LF encoding, with the LF validator.
func Prove(goal logic.Pred) (Proof, error) { return ProveWith(goal, nil) }

// ProveWith is Prove with additional (policy-published) axiom schemas
// available: the paper's "user-provided axioms", carried by the policy
// so that the consumer's validator knows them too.
func ProveWith(goal logic.Pred, extra map[string]*logic.Schema) (Proof, error) {
	ctx := newContext()
	ctx.extra = extra
	p, err := prove(logic.NormPred(goal), ctx, defaultDepth)
	if err != nil {
		return nil, err
	}
	if !logic.PredEqual(logic.NormPred(goal), goal) {
		p = Conv{To: goal, P: p}
	}
	return p, nil
}

// prove handles the connective skeleton. Invariant: on success,
// infer(proof) is PredEqual to goal.
func prove(goal logic.Pred, ctx *context, depth int) (Proof, error) {
	switch g := goal.(type) {
	case logic.TruePred:
		return TrueI{}, nil
	case logic.And:
		l, err := prove(g.L, ctx, depth)
		if err != nil {
			return nil, err
		}
		r, err := prove(g.R, ctx, depth)
		if err != nil {
			return nil, err
		}
		return AndI{l, r}, nil
	case logic.Imp:
		ctx.hypSeq++
		name := fmt.Sprintf("h%d", ctx.hypSeq)
		inner := ctx.clone()
		inner.addHyp(g.L, Hyp{name})
		body, err := prove(g.R, inner, depth)
		if err != nil {
			return nil, err
		}
		ctx.hypSeq = inner.hypSeq
		return ImpI{Name: name, Ante: g.L, Body: body}, nil
	case logic.Forall:
		if ctx.hypVars[g.Var] {
			return nil, &ProveError{goal, "quantified variable occurs free in a hypothesis"}
		}
		body, err := prove(g.Body, ctx, depth)
		if err != nil {
			return nil, err
		}
		return AllI{Var: g.Var, Body: body}, nil
	case logic.Or:
		// Try each introduction, then fall back to case analysis on a
		// disjunctive hypothesis.
		if l, err := prove(g.L, ctx, depth-1); err == nil {
			return OrIL{Right: g.R, P: l}, nil
		}
		if r, err := prove(g.R, ctx, depth-1); err == nil {
			return OrIR{Left: g.L, P: r}, nil
		}
		return caseSplit(goal, ctx, depth)
	case logic.FalsePred:
		if p, err := proveFalse(ctx); err == nil {
			return p, nil
		}
		return caseSplit(goal, ctx, depth)
	default:
		return proveAtom(goal, ctx, depth)
	}
}

// proveAtom handles Cmp, Rd and Wr goals.
func proveAtom(goal logic.Pred, ctx *context, depth int) (Proof, error) {
	if depth <= 0 {
		return nil, &ProveError{goal, "depth bound exceeded"}
	}

	// Normalize first; if that changes the goal, prove the normal form
	// and convert back. Ground truths (e.g. 0 ≤ e, (x&~7)&7 = 0)
	// normalize to true and are discharged here.
	if ng := logic.NormPred(goal); !logic.PredEqual(ng, goal) {
		p, err := prove(ng, ctx, depth)
		if err != nil {
			return nil, err
		}
		return Conv{To: goal, P: p}, nil
	}

	key := goal.String()
	if ctx.inPath[key] {
		return nil, &ProveError{goal, "cyclic sub-goal"}
	}
	ctx.inPath[key] = true
	defer delete(ctx.inPath, key)

	// Ground decision.
	if v, ok := logic.EvalPred(goal, map[string]uint64{}); ok {
		if v {
			return Ground{Goal: goal}, nil
		}
		return nil, &ProveError{goal, "ground predicate is false"}
	}

	// Direct facts.
	for _, r := range ctx.rules {
		if len(r.vars) == 0 && r.ante == nil && logic.PredEqual(r.concl, goal) {
			return r.proof, nil
		}
	}

	// Quantified / conditional hypotheses.
	if p, err := applyRules(goal, ctx, depth); err == nil {
		return p, nil
	}

	// Policy-published axiom schemas, applied by matching the goal
	// against each conclusion (base arithmetic axioms have dedicated
	// search strategies below; this generic step is what makes new
	// user axioms usable without touching the prover).
	if p, err := applyExtraAxioms(goal, ctx, depth); err == nil {
		return p, nil
	}

	// Arithmetic chaining.
	if cmp, ok := goal.(logic.Cmp); ok {
		if p, err := proveCmp(cmp, ctx, depth); err == nil {
			return p, nil
		}
	}

	// rd from wr: the paper's wr(a) subsumes readability.
	if rd, ok := goal.(logic.Rd); ok {
		if p, err := proveAtom(logic.WrP(rd.Addr), ctx, depth-1); err == nil {
			return Axiom{"wr_rd", []logic.Expr{rd.Addr}, []Proof{p}}, nil
		}
	}

	// Case analysis on a disjunctive hypothesis.
	if p, err := caseSplit(goal, ctx, depth); err == nil {
		return p, nil
	}

	// Ex falso: a contradictory context proves anything.
	if p, err := proveFalse(ctx); err == nil {
		return FalseE{Goal: goal, P: p}, nil
	}

	return nil, &ProveError{goal, "no applicable hypothesis or axiom"}
}

// proveFalse derives a contradiction from the context: an explicit
// false hypothesis (the normalizer produces one from unsatisfiable
// branch conditions) or a pair of contradictory ordering facts.
func proveFalse(ctx *context) (Proof, error) {
	var eqs, nes, lts []rule
	for _, r := range ctx.rules {
		if len(r.vars) != 0 || r.ante != nil {
			continue
		}
		if logic.PredEqual(r.concl, logic.False) {
			return r.proof, nil
		}
		if c, ok := r.concl.(logic.Cmp); ok {
			switch c.Op {
			case logic.CmpEq:
				eqs = append(eqs, r)
			case logic.CmpNe:
				nes = append(nes, r)
			case logic.CmpUlt:
				lts = append(lts, r)
			}
		}
	}
	for _, e := range eqs {
		ec := e.concl.(logic.Cmp)
		for _, n := range nes {
			nc := n.concl.(logic.Cmp)
			if logic.ExprEqual(ec.L, nc.L) && logic.ExprEqual(ec.R, nc.R) {
				return Axiom{"eq_ne_absurd", []logic.Expr{ec.L, ec.R},
					[]Proof{e.proof, n.proof}}, nil
			}
		}
	}
	for _, a := range lts {
		ac := a.concl.(logic.Cmp)
		for _, b := range lts {
			bc := b.concl.(logic.Cmp)
			if logic.ExprEqual(ac.L, bc.R) && logic.ExprEqual(ac.R, bc.L) {
				return Axiom{"lt_lt_absurd", []logic.Expr{ac.L, ac.R},
					[]Proof{a.proof, b.proof}}, nil
			}
		}
	}
	return nil, &ProveError{logic.False, "no contradiction in context"}
}

// caseSplit proves goal by case analysis on some disjunctive
// hypothesis in the context.
func caseSplit(goal logic.Pred, ctx *context, depth int) (Proof, error) {
	if depth <= 0 {
		return nil, &ProveError{goal, "depth bound exceeded"}
	}
	for i, r := range ctx.rules {
		if len(r.vars) != 0 || r.ante != nil {
			continue
		}
		or, ok := r.concl.(logic.Or)
		if !ok || ctx.split[i] {
			continue
		}
		ctx.hypSeq++
		name := fmt.Sprintf("h%d", ctx.hypSeq)
		branch := func(h logic.Pred) (Proof, error) {
			inner := ctx.clone()
			inner.split[i] = true
			// The goal legitimately recurs inside the branch with a
			// richer context; start a fresh cycle-guard path.
			// Termination holds because each disjunction splits at
			// most once per path.
			inner.inPath = map[string]bool{}
			inner.addHyp(h, Hyp{name})
			p, err := prove(goal, inner, depth-1)
			ctx.hypSeq = inner.hypSeq
			return p, err
		}
		l, err := branch(or.L)
		if err != nil {
			continue
		}
		rr, err := branch(or.R)
		if err != nil {
			continue
		}
		return OrE{Disj: r.proof, Name: name, Left: l, Right: rr}, nil
	}
	return nil, &ProveError{goal, "no disjunctive hypothesis to split"}
}

// applyExtraAxioms tries each policy-published schema whose conclusion
// matches the goal, proving the instantiated premises recursively.
func applyExtraAxioms(goal logic.Pred, ctx *context, depth int) (Proof, error) {
	names := make([]string, 0, len(ctx.extra))
	for name := range ctx.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := ctx.extra[name]
		vars := varSet(sc.Params)
		bind := map[string]logic.Expr{}
		if !matchPred(sc.Concl, goal, vars, bind) {
			continue
		}
		args := make([]logic.Expr, len(sc.Params))
		ok := true
		for i, v := range sc.Params {
			e, bound := bind[v]
			if !bound {
				ok = false // parameter not inferable from the goal
				break
			}
			args[i] = e
		}
		if !ok {
			continue
		}
		prems := make([]Proof, len(sc.Prems))
		for i, prem := range sc.Prems {
			inst := sc.Instantiate(prem, args)
			p, err := proveExact(inst, ctx, depth-1)
			if err != nil {
				ok = false
				break
			}
			prems[i] = p
		}
		if !ok {
			continue
		}
		proof := Proof(Axiom{sc.Name, args, prems})
		concl := sc.Instantiate(sc.Concl, args)
		if !logic.PredEqual(concl, goal) {
			if !logic.AlphaEqual(logic.NormPred(concl), logic.NormPred(goal)) {
				continue
			}
			proof = Conv{To: goal, P: proof}
		}
		return proof, nil
	}
	return nil, &ProveError{goal, "no applicable policy axiom"}
}

// proveExact proves g exactly (converting back if normalization
// changes it), like proveCmp's sub helper but usable from any search.
func proveExact(g logic.Pred, ctx *context, depth int) (Proof, error) {
	ng := logic.NormPred(g)
	p, err := prove(ng, ctx, depth)
	if err != nil {
		return nil, err
	}
	if !logic.PredEqual(ng, g) {
		p = Conv{To: g, P: p}
	}
	return p, nil
}

// applyRules tries each quantified or conditional hypothesis whose
// conclusion matches the goal.
func applyRules(goal logic.Pred, ctx *context, depth int) (Proof, error) {
	for _, r := range ctx.rules {
		if len(r.vars) == 0 && r.ante == nil {
			continue
		}
		bind := map[string]logic.Expr{}
		if !matchPred(r.concl, goal, varSet(r.vars), bind) {
			continue
		}
		insts := make([]logic.Expr, len(r.vars))
		ok := true
		for i, v := range r.vars {
			e, bound := bind[v]
			if !bound {
				ok = false
				break
			}
			insts[i] = e
		}
		if !ok {
			continue
		}

		proof := r.proof
		for i, v := range r.vars {
			_ = v
			proof = AllE{All: proof, Inst: insts[i]}
		}
		conclInst := substSeq(r.concl, r.vars, insts)
		if r.ante != nil {
			anteInst := substSeq(r.ante, r.vars, insts)
			anteProof, err := prove(anteInst, ctx, depth-1)
			if err != nil {
				continue
			}
			proof = ImpE{PQ: proof, P: anteProof}
		}
		if !logic.PredEqual(conclInst, goal) {
			if !logic.AlphaEqual(logic.NormPred(conclInst), logic.NormPred(goal)) {
				continue
			}
			proof = Conv{To: goal, P: proof}
		}
		return proof, nil
	}
	return nil, &ProveError{goal, "no matching rule"}
}

func substSeq(p logic.Pred, vars []string, insts []logic.Expr) logic.Pred {
	for i, v := range vars {
		p = logic.Subst(p, v, insts[i])
	}
	return p
}

func varSet(vs []string) map[string]bool {
	m := make(map[string]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// proveCmp chains ordering facts through the published axioms.
func proveCmp(goal logic.Cmp, ctx *context, depth int) (Proof, error) {
	facts := func(op logic.CmpOp) []rule {
		var out []rule
		for _, r := range ctx.rules {
			if len(r.vars) != 0 || r.ante != nil {
				continue
			}
			if c, ok := r.concl.(logic.Cmp); ok && c.Op == op {
				out = append(out, r)
			}
		}
		return out
	}
	// sub proves a constructed sub-goal exactly: it proves the normal
	// form and converts back if normalization changed the predicate.
	sub := func(g logic.Pred) (Proof, error) {
		ng := logic.NormPred(g)
		p, err := prove(ng, ctx, depth-1)
		if err != nil {
			return nil, err
		}
		if !logic.PredEqual(ng, g) {
			p = Conv{To: g, P: p}
		}
		return p, nil
	}

	switch goal.Op {
	case logic.CmpUlt:
		a, b := goal.L, goal.R
		// a < x ∧ x ≤ b.
		for _, f := range facts(logic.CmpUlt) {
			c := f.concl.(logic.Cmp)
			if logic.ExprEqual(c.L, a) {
				if rest, err := sub(logic.Ule(c.R, b)); err == nil {
					return Axiom{"lt_le_trans", []logic.Expr{a, c.R, b}, []Proof{f.proof, rest}}, nil
				}
			}
			if logic.ExprEqual(c.R, b) {
				if rest, err := sub(logic.Ule(a, c.L)); err == nil {
					return Axiom{"le_lt_trans", []logic.Expr{a, c.L, b}, []Proof{rest, f.proof}}, nil
				}
			}
		}
		// a ≤ x ∧ x < b, or a < x ∧ x ≤ b with the ≤ fact known.
		for _, f := range facts(logic.CmpUle) {
			c := f.concl.(logic.Cmp)
			if logic.ExprEqual(c.L, a) {
				if rest, err := sub(logic.Ult(c.R, b)); err == nil {
					return Axiom{"le_lt_trans", []logic.Expr{a, c.R, b}, []Proof{f.proof, rest}}, nil
				}
			}
			if logic.ExprEqual(c.R, b) {
				if rest, err := sub(logic.Ult(a, c.L)); err == nil {
					return Axiom{"lt_le_trans", []logic.Expr{a, c.L, b}, []Proof{rest, f.proof}}, nil
				}
			}
		}

		// (i << 3) < n from the VIEW-style subrange check
		// i < (n+7)>>3 (plus n ≤ 2^63 from the precondition).
		if shl, ok := a.(logic.Bin); ok && shl.Op == logic.OpShl {
			if c, isC := shl.R.(logic.Const); isC && c.Val == 3 {
				ceil := logic.NormExpr(logic.Shr(logic.Add(b, logic.C(7)), logic.C(3)))
				p1, err1 := sub(logic.Ult(shl.L, ceil))
				p2, err2 := sub(logic.Ule(b, logic.C(1<<63)))
				if err1 == nil && err2 == nil {
					proof := Axiom{"word_index_bound", []logic.Expr{shl.L, b}, []Proof{p1, p2}}
					// The axiom's premise is stated over the
					// unnormalized ceiling; reconcile via Conv.
					want := logic.Ult(shl.L, logic.Shr(logic.Add(b, logic.C(7)), logic.C(3)))
					if !logic.PredEqual(logic.Ult(shl.L, ceil), want) {
						proof.Prems[0] = Conv{To: want, P: p1}
					}
					return proof, nil
				}
			}
		}

		// (e & c) < b for constants c < b (the SFI segment bound):
		// band_ub then a ground strict step.
		if band, ok := a.(logic.Bin); ok && band.Op == logic.OpAnd {
			if mc, ok := band.R.(logic.Const); ok {
				if bc, ok := b.(logic.Const); ok && mc.Val < bc.Val {
					ub := Axiom{"band_ub", []logic.Expr{band.L, band.R}, nil}
					g, err := sub(logic.Ult(band.R, b))
					if err == nil {
						return Axiom{"le_lt_trans", []logic.Expr{a, band.R, b}, []Proof{ub, g}}, nil
					}
				}
			}
		}

	case logic.CmpUle:
		a, b := goal.L, goal.R
		// Masking bounds.
		if band, ok := a.(logic.Bin); ok && band.Op == logic.OpAnd {
			if logic.ExprEqual(band.R, b) {
				return Axiom{"band_ub", []logic.Expr{band.L, band.R}, nil}, nil
			}
			if logic.ExprEqual(band.L, b) {
				return Axiom{"band_le_self", []logic.Expr{band.L, band.R}, nil}, nil
			}
			// e&c ≤ c ≤ b.
			if rest, err := sub(logic.Ule(band.R, b)); err == nil {
				ub := Axiom{"band_ub", []logic.Expr{band.L, band.R}, nil}
				return Axiom{"le_trans", []logic.Expr{a, band.R, b}, []Proof{ub, rest}}, nil
			}
			// e&c ≤ e ≤ b.
			if rest, err := sub(logic.Ule(band.L, b)); err == nil {
				self := Axiom{"band_le_self", []logic.Expr{band.L, band.R}, nil}
				return Axiom{"le_trans", []logic.Expr{a, band.L, b}, []Proof{self, rest}}, nil
			}
		}
		// (e>>c)<<c ≤ e: rounding down to a multiple of 2^c.
		if shl, ok := a.(logic.Bin); ok && shl.Op == logic.OpShl {
			if shr, ok := shl.L.(logic.Bin); ok && shr.Op == logic.OpShr &&
				logic.ExprEqual(shr.R, shl.R) && logic.ExprEqual(shr.L, b) {
				return Axiom{"shr_shl_le", []logic.Expr{b, shl.R}, nil}, nil
			}
		}
		// e−c ≤ e given c ≤ e.
		if s, ok := a.(logic.Bin); ok && s.Op == logic.OpSub && logic.ExprEqual(s.L, b) {
			if rest, err := sub(logic.Ule(s.R, s.L)); err == nil {
				return Axiom{"sub_le", []logic.Expr{s.L, s.R}, []Proof{rest}}, nil
			}
		}
		// Transitivity through a known fact.
		for _, f := range facts(logic.CmpUle) {
			c := f.concl.(logic.Cmp)
			if logic.ExprEqual(c.R, b) && !logic.ExprEqual(c.L, a) {
				if rest, err := sub(logic.Ule(a, c.L)); err == nil {
					return Axiom{"le_trans", []logic.Expr{a, c.L, b}, []Proof{rest, f.proof}}, nil
				}
			}
			if logic.ExprEqual(c.L, a) && !logic.ExprEqual(c.R, b) {
				if rest, err := sub(logic.Ule(c.R, b)); err == nil {
					return Axiom{"le_trans", []logic.Expr{a, c.R, b}, []Proof{f.proof, rest}}, nil
				}
			}
		}
		// Weakening from strict order.
		if rest, err := sub(logic.Ult(a, b)); err == nil {
			return Axiom{"lt_imp_le", []logic.Expr{a, b}, []Proof{rest}}, nil
		}

	case logic.CmpEq:
		// Alignment goals: (S & m) = 0 for a sum S whose parts are
		// each aligned.
		if rc, ok := goal.R.(logic.Const); ok && rc.Val == 0 {
			if band, ok := goal.L.(logic.Bin); ok && band.Op == logic.OpAnd {
				if p, err := proveAligned(band.L, band.R, ctx, depth, sub); err == nil {
					return p, nil
				}
			}
		}
	}
	return nil, &ProveError{goal, "arithmetic search failed"}
}

// proveAligned proves (s & m) = 0 by structural descent over the sum s,
// combining the parts with the align_add/align_sub axioms.
func proveAligned(s, m logic.Expr, ctx *context, depth int,
	sub func(logic.Pred) (Proof, error)) (Proof, error) {
	if depth <= 0 {
		return nil, &ProveError{logic.Eq(logic.And2(s, m), logic.C(0)), "depth bound exceeded"}
	}
	if b, ok := s.(logic.Bin); ok && (b.Op == logic.OpAdd || b.Op == logic.OpSub) {
		l, err := proveAligned(b.L, m, ctx, depth-1, sub)
		if err != nil {
			return nil, err
		}
		r, err := proveAligned(b.R, m, ctx, depth-1, sub)
		if err != nil {
			return nil, err
		}
		side, err := sub(logic.Eq(logic.And2(m, logic.Add(m, logic.C(1))), logic.C(0)))
		if err != nil {
			return nil, err
		}
		name := "align_add"
		if b.Op == logic.OpSub {
			name = "align_sub"
		}
		return Axiom{name, []logic.Expr{b.L, b.R, m}, []Proof{l, r, side}}, nil
	}
	return sub(logic.Eq(logic.And2(s, m), logic.C(0)))
}

// matchPred matches a rule conclusion pattern (with pattern variables
// vars) against a goal, extending bind. Matching is one-way syntactic
// unification with one extra wrinkle: a pattern (e ⊕ v) also matches a
// goal equal to e by taking v := 0, because the normalizer erases the
// "+0" the instantiated hypothesis would carry.
func matchPred(pat, goal logic.Pred, vars map[string]bool, bind map[string]logic.Expr) bool {
	switch p := pat.(type) {
	case logic.Rd:
		g, ok := goal.(logic.Rd)
		return ok && matchExpr(p.Addr, g.Addr, vars, bind)
	case logic.Wr:
		g, ok := goal.(logic.Wr)
		return ok && matchExpr(p.Addr, g.Addr, vars, bind)
	case logic.Cmp:
		g, ok := goal.(logic.Cmp)
		return ok && p.Op == g.Op && matchExpr(p.L, g.L, vars, bind) &&
			matchExpr(p.R, g.R, vars, bind)
	case logic.And:
		g, ok := goal.(logic.And)
		return ok && matchPred(p.L, g.L, vars, bind) && matchPred(p.R, g.R, vars, bind)
	default:
		return logic.PredEqual(pat, goal)
	}
}

func matchExpr(pat, goal logic.Expr, vars map[string]bool, bind map[string]logic.Expr) bool {
	if v, ok := pat.(logic.Var); ok && vars[v.Name] {
		if prev, bound := bind[v.Name]; bound {
			return logic.ExprEqual(prev, goal)
		}
		bind[v.Name] = goal
		return true
	}
	switch p := pat.(type) {
	case logic.Const, logic.Var:
		return logic.ExprEqual(pat, goal)
	case logic.Bin:
		if p.Op == logic.OpAdd || p.Op == logic.OpSub {
			return matchSum(p, goal, vars, bind)
		}
		if g, ok := goal.(logic.Bin); ok && g.Op == p.Op {
			save := snapshot(bind)
			if matchExpr(p.L, g.L, vars, bind) && matchExpr(p.R, g.R, vars, bind) {
				return true
			}
			restore(bind, save)
		}
		return false
	case logic.Sel:
		g, ok := goal.(logic.Sel)
		return ok && matchExpr(p.Mem, g.Mem, vars, bind) && matchExpr(p.Addr, g.Addr, vars, bind)
	case logic.Upd:
		g, ok := goal.(logic.Upd)
		return ok && matchExpr(p.Mem, g.Mem, vars, bind) && matchExpr(p.Addr, g.Addr, vars, bind) &&
			matchExpr(p.Val, g.Val, vars, bind)
	}
	return false
}

// matchSum matches a pattern ⊕/⊖-sum against a goal expression
// associatively and commutatively. Concrete pattern terms must each
// appear in the goal sum with the same sign; a single unbound pattern
// variable absorbs whatever remains (possibly 0, possibly a constant
// offset, possibly a whole residual sum). Any heuristic over-reach is
// harmless: applyRules re-verifies the instantiated conclusion against
// the goal up to normalization before accepting the match.
func matchSum(pat logic.Expr, goal logic.Expr, vars map[string]bool, bind map[string]logic.Expr) bool {
	type term struct {
		e   logic.Expr
		neg bool
	}
	var flatten func(e logic.Expr, neg bool, terms *[]term, offset *uint64)
	flatten = func(e logic.Expr, neg bool, terms *[]term, offset *uint64) {
		switch e := e.(type) {
		case logic.Const:
			if neg {
				*offset -= e.Val
			} else {
				*offset += e.Val
			}
		case logic.Bin:
			switch e.Op {
			case logic.OpAdd:
				flatten(e.L, neg, terms, offset)
				flatten(e.R, neg, terms, offset)
				return
			case logic.OpSub:
				flatten(e.L, neg, terms, offset)
				flatten(e.R, !neg, terms, offset)
				return
			}
			*terms = append(*terms, term{e, neg})
		default:
			*terms = append(*terms, term{e, neg})
		}
	}

	var patTerms, goalTerms []term
	var patOff, goalOff uint64
	flatten(pat, false, &patTerms, &patOff)
	flatten(goal, false, &goalTerms, &goalOff)

	// Replace already-bound pattern variables by their bindings.
	var free []term // unbound pattern variables
	var concrete []term
	for _, t := range patTerms {
		if v, ok := t.e.(logic.Var); ok && vars[v.Name] {
			if b, bound := bind[v.Name]; bound {
				flatten(b, t.neg, &concrete, &patOff)
			} else {
				free = append(free, t)
			}
			continue
		}
		concrete = append(concrete, t)
	}
	if len(free) > 1 {
		return false
	}

	// Each concrete pattern term must match a goal term of equal sign.
	used := make([]bool, len(goalTerms))
	for _, ct := range concrete {
		found := false
		for gi, gt := range goalTerms {
			if used[gi] || gt.neg != ct.neg {
				continue
			}
			save := snapshot(bind)
			if matchExpr(ct.e, gt.e, vars, bind) {
				used[gi] = true
				found = true
				break
			}
			restore(bind, save)
		}
		if !found {
			return false
		}
	}

	// Whatever is left over goes to the free variable (or must be
	// nothing when the pattern has no free variable).
	residOff := goalOff - patOff
	var resid []term
	for gi, gt := range goalTerms {
		if !used[gi] {
			resid = append(resid, gt)
		}
	}
	if len(free) == 0 {
		return len(resid) == 0 && residOff == 0
	}
	fv := free[0]
	var expr logic.Expr
	for _, rt := range resid {
		neg := rt.neg != fv.neg // absorbed under the variable's own sign
		switch {
		case expr == nil && neg:
			expr = logic.Sub(logic.C(0), rt.e)
		case expr == nil:
			expr = rt.e
		case neg:
			expr = logic.Sub(expr, rt.e)
		default:
			expr = logic.Add(expr, rt.e)
		}
	}
	if fv.neg {
		residOff = -residOff
	}
	switch {
	case expr == nil:
		expr = logic.C(residOff)
	case residOff != 0:
		expr = logic.Add(expr, logic.C(residOff))
	}
	bind[fv.e.(logic.Var).Name] = logic.NormExpr(expr)
	return true
}

func snapshot(bind map[string]logic.Expr) map[string]logic.Expr {
	out := make(map[string]logic.Expr, len(bind))
	for k, v := range bind {
		out[k] = v
	}
	return out
}

func restore(bind map[string]logic.Expr, save map[string]logic.Expr) {
	for k := range bind {
		if _, ok := save[k]; !ok {
			delete(bind, k)
		}
	}
	for k, v := range save {
		bind[k] = v
	}
}
