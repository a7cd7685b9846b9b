package logic

import "testing"

// Native Go fuzz targets (run with `go test -fuzz=FuzzParsePred`; under
// plain `go test` the seed corpus doubles as a robustness regression
// suite). The parser faces user-written policy files and -inv flags,
// so it must never panic, and anything it accepts must round-trip
// through the printer.

// predSeeds seeds FuzzParsePred and the normalizer's idempotence test.
var predSeeds = []string{
	"true", "rd(r0)", "r0 = 5", "ALL i. rd(r1 + i)",
	"(64 <= r2 /\\ (ALL i. (i < r2 /\\ (i & 7) = 0) => rd(r1 + i)))",
	"sel(rm, r0) <> 0 => wr(r0 + 8)",
	"cmpult(r4, r2) <> 0", "a \\/ b", "((", "rd(", "ALL . x", "#!$",
	"r0 <s -1 \\/ r0 <=s 0x10", "upd(rm, r0, 5) = rm",
}

func FuzzParsePred(f *testing.F) {
	for _, s := range predSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePred(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must round-trip through the printer.
		back, err := ParsePred(p.String())
		if err != nil {
			t.Fatalf("printed form does not re-parse: %s: %v", p, err)
		}
		if !PredEqual(p, back) {
			t.Fatalf("print/parse round trip changed predicate:\n in:  %s\n out: %s", p, back)
		}
		// Normalization must not panic on parsed predicates either,
		// and must be idempotent: the VC generator returns normal
		// subformulas as their own normal forms.
		n := NormPred(p)
		if nn := NormPred(n); !PredEqual(nn, n) {
			t.Fatalf("NormPred not idempotent on %s:\n  once:  %s\n  twice: %s", p, n, nn)
		}
	})
}

func FuzzParseExpr(f *testing.F) {
	for _, s := range []string{
		"42", "r0 + 8", "(r0 >> 46) & 60", "sel(rm, r0)", "-8",
		"cmpeq(r1, 0x0608)", "((", "1 +",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseExpr(src)
		if err != nil {
			return
		}
		back, err := ParseExpr(e.String())
		if err != nil || !ExprEqual(e, back) {
			t.Fatalf("round trip failed for %s", e)
		}
		_ = NormExpr(e)
	})
}
