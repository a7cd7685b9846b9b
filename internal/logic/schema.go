package logic

// Schema is an axiom schema of a proof system: named parameters
// (conventionally "$a", "$b", … — names no machine program can
// mention), premises, and a conclusion, the latter two given as
// predicates over the parameters. The core rule set is Axioms, below;
// policies may publish additional schemas (policy.Policy.Axioms),
// realizing the paper's workflow in which the prover "learns new
// axioms about arithmetic" that are "remembered for future sessions" —
// here, remembered by being part of the published policy, so producer
// and consumer agree on them by construction.
type Schema struct {
	Name    string
	Params  []string
	Prems   []Pred
	Concl   Pred
	Comment string
}

// Instantiate substitutes args for the schema's parameters in p.
func (s *Schema) Instantiate(p Pred, args []Expr) Pred {
	for i, param := range s.Params {
		p = Subst(p, param, args[i])
	}
	return p
}

// LookupAxiom resolves an axiom name against the base rule set plus an
// optional extra set (extra wins on clash, which policy vetting
// forbids anyway).
func LookupAxiom(name string, extra map[string]*Schema) (*Schema, bool) {
	if extra != nil {
		if s, ok := extra[name]; ok {
			return s, true
		}
	}
	s, ok := Axioms[name]
	return s, ok
}

// Axioms is the published rule set ℒ beyond the core natural-deduction
// rules: ordering, compare-instruction, bit-masking and memory axioms,
// each a theorem of 64-bit two's-complement arithmetic.
var Axioms = map[string]*Schema{}

func def(name string, params []string, prems []Pred, concl Pred, comment string) {
	Axioms[name] = &Schema{
		Name: name, Params: params, Prems: prems, Concl: concl, Comment: comment,
	}
}

func init() {
	// Schema parameters use names no machine program can mention.
	pa, pb, pc := V("$a"), V("$b"), V("$c")
	pe, pm, pv := V("$e"), V("$m"), V("$v")
	ab := []string{"$a", "$b"}
	abc := []string{"$a", "$b", "$c"}

	def("lt_le_trans", abc,
		[]Pred{Ult(pa, pb), Ule(pb, pc)},
		Ult(pa, pc), "a<b ∧ b≤c ⇒ a<c")
	def("le_lt_trans", abc,
		[]Pred{Ule(pa, pb), Ult(pb, pc)},
		Ult(pa, pc), "a≤b ∧ b<c ⇒ a<c")
	def("le_trans", abc,
		[]Pred{Ule(pa, pb), Ule(pb, pc)},
		Ule(pa, pc), "a≤b ∧ b≤c ⇒ a≤c")
	def("lt_imp_le", ab,
		[]Pred{Ult(pa, pb)},
		Ule(pa, pb), "a<b ⇒ a≤b")
	def("eq_sym", ab,
		[]Pred{Eq(pa, pb)},
		Eq(pb, pa), "symmetry of =")
	def("ne_sym", ab,
		[]Pred{Ne(pa, pb)},
		Ne(pb, pa), "symmetry of ≠")

	// The Alpha compare instructions, as expressions, related to the
	// predicates they decide.
	cmp := func(op BinOp) Expr { return Bin{Op: op, L: pa, R: pb} }
	def("cmpeq_true", ab,
		[]Pred{Ne(cmp(OpCmpEq), C(0))},
		Eq(pa, pb), "cmpeq(a,b)≠0 ⇒ a=b")
	def("cmpeq_false", ab,
		[]Pred{Eq(cmp(OpCmpEq), C(0))},
		Ne(pa, pb), "cmpeq(a,b)=0 ⇒ a≠b")
	def("cmpult_true", ab,
		[]Pred{Ne(cmp(OpCmpUlt), C(0))},
		Ult(pa, pb), "cmpult(a,b)≠0 ⇒ a<b")
	def("cmpult_false", ab,
		[]Pred{Eq(cmp(OpCmpUlt), C(0))},
		Ule(pb, pa), "cmpult(a,b)=0 ⇒ b≤a")
	def("cmpule_true", ab,
		[]Pred{Ne(cmp(OpCmpUle), C(0))},
		Ule(pa, pb), "cmpule(a,b)≠0 ⇒ a≤b")
	def("cmpule_false", ab,
		[]Pred{Eq(cmp(OpCmpUle), C(0))},
		Ult(pb, pa), "cmpule(a,b)=0 ⇒ b<a")

	// Bit-masking bounds, the workhorses of the data-dependent offset
	// proof in Filter 4.
	def("band_ub", []string{"$e", "$c"}, nil,
		Ule(And2(pe, pc), pc), "e&c ≤ c")
	def("band_le_self", []string{"$e", "$c"}, nil,
		Ule(And2(pe, pc), pe), "e&c ≤ e")

	// Rounding down to a multiple of 2^c never increases a value.
	def("shr_shl_le", []string{"$e", "$c"}, nil,
		Ule(Shl(Shr(pe, pc), pc), pe),
		"(e>>c)<<c ≤ e")

	// Non-wrapping subtraction bound.
	def("sub_le", []string{"$e", "$c"},
		[]Pred{Ule(pc, pe)},
		Ule(Sub(pe, pc), pe), "c≤e ⇒ e-c ≤ e")

	// Monotonic addition without overflow: e≤a ∧ a ≤ MAX-b ⇒ e+b ≤ a+b.
	def("add_le_mono", []string{"$e", "$a", "$b"},
		[]Pred{
			Ule(pe, pa),
			Ule(pa, Sub(C(^uint64(0)), pb)),
		},
		Ule(Add(pe, pb), Add(pa, pb)),
		"e≤a ∧ a≤MAX−b ⇒ e+b ≤ a+b")

	// Alignment propagation through sums: when m has the form 2^k−1
	// (expressed by the ground side condition m & (m+1) = 0), values
	// divisible by 2^k stay divisible under ⊕ and ⊖. These discharge
	// the "offset stays 8-byte aligned" obligations of loop bodies.
	zero := C(0)
	alignPrems := func(l, r Expr) []Pred {
		return []Pred{
			Eq(And2(l, pm), zero),
			Eq(And2(r, pm), zero),
			Eq(And2(pm, Add(pm, C(1))), zero),
		}
	}
	def("align_add", []string{"$a", "$b", "$m"},
		alignPrems(pa, pb),
		Eq(And2(Add(pa, pb), pm), zero),
		"a,b ≡ 0 mod (m+1), m=2^k−1 ⇒ a⊕b ≡ 0")
	def("align_sub", []string{"$a", "$b", "$m"},
		alignPrems(pa, pb),
		Eq(And2(Sub(pa, pb), pm), zero),
		"a,b ≡ 0 mod (m+1), m=2^k−1 ⇒ a⊖b ≡ 0")

	// Contradictory orderings: used by the ex-falso search when a case
	// split lands in an impossible branch.
	def("eq_ne_absurd", ab,
		[]Pred{Eq(pa, pb), Ne(pa, pb)},
		False, "a=b ∧ a≠b ⇒ false")
	def("lt_lt_absurd", ab,
		[]Pred{Ult(pa, pb), Ult(pb, pa)},
		False, "a<b ∧ b<a ⇒ false")

	// Writable implies readable: the paper defines wr(a) as "an aligned
	// location that can be safely read or written".
	def("wr_rd", []string{"$e"},
		[]Pred{WrP(pe)},
		RdP(pe), "wr(e) ⇒ rd(e)")

	// Word-index bound: i < ⌈n/8⌉ ∧ n ≤ 2^63 ⇒ 8i < n. Discharges the
	// VIEW-style subrange checks a safe-language compiler emits.
	def("word_index_bound", []string{"$a", "$b"},
		[]Pred{
			Ult(pa, Shr(Add(pb, C(7)), C(3))),
			Ule(pb, C(1<<63)),
		},
		Ult(Shl(pa, C(3)), pb),
		"i < (n+7)>>3 ∧ n ≤ 2^63 ⇒ i<<3 < n")

	// McCarthy memory axioms. sel_upd_eq is folded by the normalizer;
	// it is published anyway so hand-written proofs may use it.
	def("sel_upd_eq", []string{"$m", "$a", "$v"}, nil,
		Eq(SelE(UpdE(pm, pa, pv), pa), pv),
		"sel(upd(m,a,v),a) = v")
	def("sel_upd_ne", []string{"$m", "$a", "$b", "$v"},
		[]Pred{Ne(pa, pb)},
		Eq(SelE(UpdE(pm, pa, pv), pb), SelE(pm, pb)),
		"a≠b ⇒ sel(upd(m,a,v),b) = sel(m,b)")
}
