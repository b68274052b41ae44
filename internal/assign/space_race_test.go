package assign_test

// Determinism and race tests for the sharded space construction: the
// parallel row-projection path must produce byte-identical Valid() ordering
// (and identical NodeIDs) to the serial map-based path, including when many
// spaces are built concurrently. Run with -race.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// dagFixture returns a DAG workload large enough to cross the parallel
// projection threshold, plus its evaluated WHERE rows.
func dagFixture(t testing.TB) (*synth.DAG, *sparql.Results) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 100, Depth: 5, MSPPercent: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
	if err != nil {
		t.Fatal(err)
	}
	return d, plan.Eval()
}

// TestParallelSpaceMatchesSerial pins the parallel NewSpaceFromRows result
// against the serial NewSpace path on the same rows.
func TestParallelSpaceMatchesSerial(t *testing.T) {
	d, res := dagFixture(t)
	serial, err := assign.NewSpace(d.Query, res.Bindings(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := assign.NewSpaceFromRows(d.Query, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv, pv := serial.Valid(), parallel.Valid()
	if len(sv) != len(pv) {
		t.Fatalf("valid count: serial %d, parallel %d", len(sv), len(pv))
	}
	if len(sv) < 2 {
		t.Fatalf("fixture too small to be meaningful: %d valid assignments", len(sv))
	}
	for i := range sv {
		if sv[i].Key() != pv[i].Key() {
			t.Fatalf("Valid()[%d]: serial %q, parallel %q", i, sv[i].Key(), pv[i].Key())
		}
		if sv[i].ID() != pv[i].ID() {
			t.Fatalf("Valid()[%d] NodeID: serial %d, parallel %d", i, sv[i].ID(), pv[i].ID())
		}
	}
}

// TestConcurrentSpaceConstruction builds many spaces from the same results
// at once; every one must come out identical.
func TestConcurrentSpaceConstruction(t *testing.T) {
	d, res := dagFixture(t)
	ref, err := assign.NewSpaceFromRows(d.Query, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, err := assign.NewSpaceFromRows(d.Query, res, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got, want := sp.Valid(), ref.Valid()
			if len(got) != len(want) {
				t.Errorf("valid count %d, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i].Key() != want[i].Key() || got[i].ID() != want[i].ID() {
					t.Errorf("Valid()[%d] diverged under concurrency", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// canonWalk is one goroutine's share of TestConcurrentCanonicalCheck: seeded
// walks over the shared space that canonicalize each reached node, its
// rebuilt twin (built outside any space), the same node interned by a second
// space, and a specialization that may not be interned yet, while a private
// Classifier marks and reads statuses through them. It returns one line per
// step, keyed by canonical keys so that it does not depend on NodeIDs.
func canonWalk(t *testing.T, s, other *assign.Space, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	v := s.Vocabulary()
	cls := assign.NewClassifier(s)
	rebuild := func(a *assign.Assignment) *assign.Assignment {
		vals := map[string][]vocab.TermID{}
		for _, name := range a.Vars() {
			vals[name] = append([]vocab.TermID(nil), a.Values(name)...)
		}
		return assign.New(v, s.Kinds(), vals, a.More())
	}
	var out []string
	for w := 0; w < 30; w++ {
		roots := s.Roots()
		n := roots[rng.Intn(len(roots))]
		for i := rng.Intn(6); i > 0; i-- {
			succs := s.Successors(n)
			if len(succs) == 0 {
				break
			}
			n = succs[rng.Intn(len(succs))]
		}
		if s.Canon(n) != n {
			t.Errorf("Canon of a canonical node %s returned another node", n.Key())
		}
		twin := rebuild(n)
		if s.Canon(twin) != n {
			t.Errorf("rebuilt %s did not intern onto the walked node", n.Key())
		}
		if s.Canon(other.Canon(rebuild(n))) != n {
			t.Errorf("%s interned by another space did not resolve to the walked node", n.Key())
		}
		// A leaf specialization built outside the space: several
		// goroutines may intern it at once.
		leaves := map[string][]vocab.TermID{}
		for _, name := range n.Vars() {
			x := n.Values(name)[0]
			for kids := v.Children(s.Kinds()[name], x); len(kids) > 0; kids = v.Children(s.Kinds()[name], x) {
				x = kids[0]
			}
			leaves[name] = []vocab.TermID{x}
		}
		spec := assign.New(v, s.Kinds(), leaves, nil)
		if c := s.Canon(spec); c.Key() != spec.Key() || s.Canon(c) != c {
			t.Errorf("Canon(%s) returned %s", spec.Key(), c.Key())
		}
		// Significant marks on walked nodes (via their twins) and
		// insignificant marks on the leaf specializations keep both
		// verdicts in play.
		if cls.Status(twin) == assign.Unknown && rng.Intn(2) == 0 {
			cls.MarkSignificant(twin)
		}
		if cls.Status(spec) == assign.Unknown {
			cls.MarkInsignificant(spec)
		}
		out = append(out, fmt.Sprintf("%s %v %s %v %d", n.Key(), cls.Status(n), spec.Key(), cls.Status(spec), len(s.Successors(n))))
	}
	return out
}

// TestConcurrentCanonicalCheck shares one space (and a second space whose
// nodes cross over) between goroutines that run Canon, Successors and a
// private Classifier, including on assignments built outside the space.
// The lock-free canonical check must never let a goroutine see a node
// before its ID, and every goroutine must reach the verdicts a serial run
// on a fresh space reaches. Run with -race.
func TestConcurrentCanonicalCheck(t *testing.T) {
	const workers = 6
	want := make([][]string, workers)
	for g := range want {
		ref, other := randomSpace(t, 43), randomSpace(t, 43)
		want[g] = canonWalk(t, ref.Space, other.Space, int64(g))
	}
	shared, other := randomSpace(t, 43), randomSpace(t, 43)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := canonWalk(t, shared.Space, other.Space, int64(g))
			if fmt.Sprint(got) != fmt.Sprint(want[g]) {
				t.Errorf("goroutine %d diverged from its serial run:\n got %v\nwant %v", g, got, want[g])
			}
		}(g)
	}
	wg.Wait()
}
