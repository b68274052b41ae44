package sparql_test

// Large-store differential for semantic mode: the randomized stores of
// ref_test.go stay under semScanFloor, so the index-driven candidate path
// of runSemTriple never engages there. These cases use hundreds of facts
// per predicate and a deep element taxonomy, making bound-side patterns
// take the bySP/byPO point-index route, and pin the planned evaluator to
// the naive reference on exactly those shapes.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

func largeSemStore(rng *rand.Rand) (*ontology.Store, []vocab.TermID, []vocab.TermID) {
	v := vocab.New()
	nElem := 50 + rng.Intn(30)
	elems := make([]vocab.TermID, nElem)
	for i := range elems {
		elems[i] = v.MustElement(fmt.Sprintf("E%d", i))
		if i > 0 {
			if err := v.OrderElements(elems[rng.Intn(i)], elems[i]); err != nil {
				panic(err)
			}
		}
	}
	rels := []vocab.TermID{v.MustRelation("ra"), v.MustRelation("rb")}
	if err := v.OrderRelations(rels[0], rels[1]); err != nil {
		panic(err)
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	s := ontology.NewStore(v)
	for i := 0; i < 400+rng.Intn(300); i++ {
		s.MustAdd(ontology.Fact{
			S: elems[rng.Intn(nElem)],
			P: rels[rng.Intn(len(rels))],
			O: elems[rng.Intn(nElem)],
		})
	}
	s.Freeze()
	return s, elems, rels
}

func TestDifferentialSemanticLargeStore(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		s, elems, rels := largeSemStore(rng)
		constE := func() sparql.Term { return sparql.ConstTerm(elems[rng.Intn(len(elems))]) }
		cases := []sparql.BGP{
			// Bound subject: index path over the subject's descendants.
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: sparql.VarTerm("x")}},
			// Bound object.
			{{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[1]), O: constE()}},
			// Both bound.
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: constE()}},
			// Join: the second pattern runs with $x bound per candidate.
			{
				{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[0]), O: constE()},
				{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[1]), O: sparql.VarTerm("y")},
			},
			// Predicate hierarchy: ra ≤ rb, pattern on ra reaches rb facts.
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: sparql.VarTerm("y")}},
		}
		for ci, bgp := range cases {
			e := sparql.NewEvaluator(s)
			e.Semantic = true
			got, err := e.Eval(bgp)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, ci, err)
			}
			want := newRefEvaluator(s, true).eval(bgp)
			if !bindingsEqual(got, want) {
				t.Fatalf("seed %d case %d: planned evaluator diverges from reference on large store\nplanned %d rows, reference %d rows\n%s",
					seed, ci, len(got), len(want), describeCase(s, bgp))
			}
		}
	}
}

// TestSemanticStreamEmissionOrder pins the exact, unsorted row sequence the
// compiled plan's Stream produces in Semantic mode on the stores of
// TestDifferentialSemanticLargeStore. Assign interns space nodes in
// Stream order, so NodeIDs depend on it: a change to semantic matching may
// make it faster but must not reorder, drop or duplicate a single row. The
// reference evaluators check the row sets, not this order; change the
// digest only with a deliberate change of emission order.
func TestSemanticStreamEmissionOrder(t *testing.T) {
	const (
		wantRows   = 576990
		wantDigest = "1c0dee7486a0ebd32462ab1d86916a05fac05016c7db439871d8d99ed94eb0ca"
	)
	h := sha256.New()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	rows := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		s, elems, rels := largeSemStore(rng)
		constE := func() sparql.Term { return sparql.ConstTerm(elems[rng.Intn(len(elems))]) }
		x, y, p := sparql.VarTerm("x"), sparql.VarTerm("y"), sparql.VarTerm("p")
		cases := []sparql.BGP{
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: x}},
			{{S: x, P: sparql.ConstTerm(rels[1]), O: constE()}},
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: constE()}},
			{{S: x, P: sparql.ConstTerm(rels[0]), O: constE()}, {S: x, P: sparql.ConstTerm(rels[1]), O: y}},
			// Free subject and object: both sides walk their ancestor cones.
			{{S: x, P: sparql.ConstTerm(rels[0]), O: y}},
			// Free predicate too, and a variable repeated on both sides.
			{{S: x, P: p, O: y}},
			{{S: x, P: sparql.ConstTerm(rels[0]), O: x}},
			// Wildcard subject: the ancestor walk is skipped on that side.
			{{S: sparql.WildcardTerm(), P: sparql.ConstTerm(rels[1]), O: y}},
		}
		for ci, bgp := range cases {
			e := sparql.NewEvaluator(s)
			e.Semantic = true
			pl, err := e.Compile(bgp)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, ci, err)
			}
			put(int32(seed))
			put(int32(ci))
			n := pl.Stream(func(row []vocab.TermID) bool {
				for _, v := range row {
					put(int32(v))
				}
				return true
			})
			put(int32(n))
			rows += n
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if rows != wantRows || got != wantDigest {
		t.Fatalf("semantic Stream emitted %d rows with digest %s, want %d rows with digest %s",
			rows, got, wantRows, wantDigest)
	}
}

// TestSemanticStreamAllocsFlat checks that Semantic-mode matching of a
// pattern with a free subject and a free object allocates nothing per
// matched fact: the free sides walk the memoized ancestor lists in place.
// The second store holds four times the matched facts of the first; a
// per-fact allocation would show as a fourfold count.
func TestSemanticStreamAllocsFlat(t *testing.T) {
	allocs := func(nFacts int) float64 {
		rng := rand.New(rand.NewSource(11))
		v := vocab.New()
		elems := make([]vocab.TermID, 64)
		for i := range elems {
			elems[i] = v.MustElement(fmt.Sprintf("E%d", i))
			if i > 0 {
				if err := v.OrderElements(elems[rng.Intn(i)], elems[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := v.MustRelation("r")
		if err := v.Freeze(); err != nil {
			t.Fatal(err)
		}
		s := ontology.NewStore(v)
		seen := make(map[ontology.Fact]bool)
		for len(seen) < nFacts {
			f := ontology.Fact{S: elems[rng.Intn(len(elems))], P: r, O: elems[rng.Intn(len(elems))]}
			seen[f] = true
			s.MustAdd(f)
		}
		s.Freeze()
		e := sparql.NewEvaluator(s)
		e.Semantic = true
		pl, err := e.Compile(sparql.BGP{{S: sparql.VarTerm("x"), P: sparql.ConstTerm(r), O: sparql.VarTerm("y")}})
		if err != nil {
			t.Fatal(err)
		}
		yield := func([]vocab.TermID) bool { return true }
		// AllocsPerRun's warm-up run fills the vocabulary memos.
		return testing.AllocsPerRun(10, func() { pl.Stream(yield) })
	}
	small, large := allocs(150), allocs(600)
	if large > small {
		t.Fatalf("Stream allocations grow with matched facts: %.0f at 150 facts, %.0f at 600", small, large)
	}
}
