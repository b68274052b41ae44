package sparql_test

import (
	"bytes"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

func benchBGP(v *vocab.Vocabulary) sparql.BGP {
	rel := func(name string) vocab.TermID { return v.Relation(name) }
	el := func(name string) vocab.TermID { return v.Element(name) }
	return sparql.BGP{
		{S: sparql.VarTerm("w"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Attraction")), Star: true},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.VarTerm("w")},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("inside")), O: sparql.ConstTerm(el("NYC"))},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("hasLabel")), O: sparql.LiteralTerm("child-friendly")},
		{S: sparql.VarTerm("y"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Activity")), Star: true},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.ConstTerm(el("Restaurant"))},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(rel("nearBy")), O: sparql.VarTerm("x")},
	}
}

// BenchmarkWhereEval compares the WHERE-stage implementations on the
// Figure 2 query over the Figure 1 ontology: the compiled plan (as used by
// Eval), a pre-compiled reused plan, and the seed interpreter.
func BenchmarkWhereEval(b *testing.B) {
	v, s := paperdata.Build()
	bgp := benchBGP(v)
	e := sparql.NewEvaluator(s)

	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Eval(bgp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-reused", func(b *testing.B) {
		pl, err := e.Compile(bgp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pl.Eval().Len() == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.EvalInterpreted(bgp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCache compares a cold Compile against a shared-cache hit:
// the hit path hashes the query shape, rebinds the cached plan to the
// caller's variable names and skips compilation entirely, which is what
// keeps repeated NewSession setup at the reused-plan level.
func BenchmarkPlanCache(b *testing.B) {
	v, s := paperdata.Build()
	bgp := benchBGP(v)

	b.Run("compile-cold", func(b *testing.B) {
		e := sparql.NewEvaluator(s)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Compile(bgp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		e := sparql.NewEvaluator(s).UseSharedCache()
		if _, err := e.Compile(bgp); err != nil { // warm the shared entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Compile(bgp); err != nil {
				b.Fatal(err)
			}
		}
		hits, _, _ := e.Cache.Stats()
		if hits < int64(b.N) {
			b.Fatalf("expected >= %d cache hits, got %d", b.N, hits)
		}
	})
}

// BenchmarkSemanticStar streams a three-pattern Semantic-mode star,
// `$s instanceOf C . $s link0 $o1 . $s link1 $o2`, over the smoke-scale
// fleet ontology, with C the class whose instance cone is closest to 100
// instances. The free $s and $o1 sides walk ancestor cones, so the third
// pattern meets the same bound $s once per row of the second: the shape
// whose repeated bound-side matches the per-run match memo serves.
func BenchmarkSemanticStar(b *testing.B) {
	var buf bytes.Buffer
	if err := synth.WriteScaleNTriples(&buf, synth.SmokeScale()); err != nil {
		b.Fatal(err)
	}
	_, st, _, err := ontology.LoadNTriples(&buf, ontology.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	v := st.Vocabulary()
	inst := v.Relation(ontology.RelInstanceOf)
	anchor, best := vocab.TermID(0), -1
	for c := 0; c < synth.SmokeScale().Classes; c++ {
		class := v.Element(synth.ScaleClassName(c))
		n := 0
		for _, d := range v.ElementDescendants(class) {
			n += len(st.Subjects(inst, d))
		}
		d := n - 100
		if d < 0 {
			d = -d
		}
		if best < 0 || d < best {
			anchor, best = class, d
		}
	}
	rel := func(i int) sparql.Term { return sparql.ConstTerm(v.Relation(synth.ScalePredName(i))) }
	s := sparql.VarTerm("s")
	bgp := sparql.BGP{
		{S: s, P: sparql.ConstTerm(inst), O: sparql.ConstTerm(anchor)},
		{S: s, P: rel(0), O: sparql.VarTerm("o1")},
		{S: s, P: rel(1), O: sparql.VarTerm("o2")},
	}
	e := sparql.NewEvaluator(st)
	e.Semantic = true
	pl, err := e.Compile(bgp)
	if err != nil {
		b.Fatal(err)
	}
	yield := func([]vocab.TermID) bool { return true }
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = pl.Stream(yield)
	}
	if rows == 0 {
		b.Fatal("semantic star matched no rows")
	}
	b.ReportMetric(float64(rows), "rows/op")
}
