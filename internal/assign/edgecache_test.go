package assign_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/vocab"
)

func sameNodes(got, want []*assign.Assignment) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		// Interning makes node equality pointer equality.
		if got[i] != want[i] {
			return fmt.Errorf("node %d: %s vs %s", i, got[i].Key(), want[i].Key())
		}
	}
	return nil
}

// TestEdgeCacheTransparent pins that the shared edge cache is invisible:
// for every reachable node of a seeded DAG, the cached Successors and
// Predecessors equal the uncached recomputation node-for-node, no matter
// how often or in which order the cache is hit.
func TestEdgeCacheTransparent(t *testing.T) {
	d := randomSpace(t, 41)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 80; i++ {
		a := randomWalk(d, rng, rng.Intn(6))
		// Hit the cache twice (populate, then read), then compare with
		// the raw computation.
		first := d.Space.Successors(a)
		second := d.Space.Successors(a)
		if err := sameNodes(second, first); err != nil {
			t.Fatalf("Successors(%s) unstable across cache hits: %v", a.Key(), err)
		}
		if err := sameNodes(first, d.Space.UncachedSuccessors(a)); err != nil {
			t.Fatalf("cached Successors(%s) diverge from computation: %v", a.Key(), err)
		}
		pfirst := d.Space.Predecessors(a)
		if err := sameNodes(pfirst, d.Space.UncachedPredecessors(a)); err != nil {
			t.Fatalf("cached Predecessors(%s) diverge from computation: %v", a.Key(), err)
		}
	}
	// Roots are memoized too.
	if err := sameNodes(d.Space.Roots(), d.Space.Roots()); err != nil {
		t.Fatalf("Roots unstable: %v", err)
	}
}

// TestEdgeCacheConcurrent hammers one shared Space from many goroutines —
// the multi-driver / re-run sharing the cache exists for — and checks, under
// the race detector, that every cached answer still equals the uncached
// computation.
func TestEdgeCacheConcurrent(t *testing.T) {
	d := randomSpace(t, 47)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				a := randomWalk(d, rng, rng.Intn(6))
				if err := sameNodes(d.Space.Successors(a), d.Space.UncachedSuccessors(a)); err != nil {
					errs <- fmt.Errorf("Successors(%s): %v", a.Key(), err)
					return
				}
				if err := sameNodes(d.Space.Predecessors(a), d.Space.UncachedPredecessors(a)); err != nil {
					errs <- fmt.Errorf("Predecessors(%s): %v", a.Key(), err)
					return
				}
				_ = d.Space.Roots()
				_ = a.Key() // lazy key computation must be race-free too
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInterningPointerIdentity pins the tentpole invariant: structurally
// equal assignments reached by different derivation paths are the same
// pointer with the same dense NodeID, and Canon is idempotent.
func TestInterningPointerIdentity(t *testing.T) {
	d := randomSpace(t, 53)
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 60; i++ {
		a := randomWalk(d, rng, rng.Intn(5))
		if a.ID() == assign.NoID {
			t.Fatalf("space-produced node %s has no ID", a.Key())
		}
		if d.Space.Canon(a) != a {
			t.Fatalf("Canon not idempotent on %s", a.Key())
		}
		// Rebuilding the assignment from scratch and interning it
		// collapses onto the very same pointer and NodeID.
		vals := map[string][]vocab.TermID{}
		for _, vs := range d.Space.Vars() {
			if set := a.Values(vs.Name); len(set) > 0 {
				vals[vs.Name] = append([]vocab.TermID{}, set...)
			}
		}
		twin := assign.New(d.Vocab, d.Space.Kinds(), vals, a.More())
		if twin.ID() != assign.NoID {
			t.Fatalf("fresh assignment %s already carries ID %d", twin.Key(), twin.ID())
		}
		if c := d.Space.Canon(twin); c != a || c.ID() != a.ID() {
			t.Fatalf("rebuilt %s does not intern onto the original node", a.Key())
		}
	}
}

// TestCanonForeignNodeLeavesOwnerIntact: handing a node of space A to space
// B's Canon interns a twin in B and leaves the node's ID — and with it A's
// successor list for the node — exactly as A assigned them.
func TestCanonForeignNodeLeavesOwnerIntact(t *testing.T) {
	a, b := randomSpace(t, 41), randomSpace(t, 41)
	// A fresh B has interned only its valid assignments; walk A to a node
	// that is not one of them, so B must register the node anew.
	valid := map[string]bool{}
	for _, psi := range b.Space.Valid() {
		valid[psi.Key()] = true
	}
	rng := rand.New(rand.NewSource(1))
	n := randomWalk(a, rng, 4)
	for i := 0; valid[n.Key()]; i++ {
		if i == 100 {
			t.Fatal("no walk left the valid set")
		}
		n = randomWalk(a, rng, 4)
	}
	id := n.ID()
	want := append([]*assign.Assignment(nil), a.Space.Successors(n)...)

	before := b.Space.NumNodes()
	twin := b.Space.Canon(n)
	if b.Space.NumNodes() != before+1 {
		t.Fatalf("B.Canon of a node new to B grew B by %d nodes, want 1", b.Space.NumNodes()-before)
	}
	if n.ID() != id {
		t.Fatalf("B.Canon moved the node's ID from %d to %d", id, n.ID())
	}
	if err := sameNodes(a.Space.Successors(n), want); err != nil {
		t.Fatalf("A's successors of %s changed after B.Canon: %v", n.Key(), err)
	}
	if a.Space.Canon(n) != n {
		t.Fatal("the node is no longer canonical in A")
	}
	if twin == n || twin.Key() != n.Key() {
		t.Fatalf("B's twin %p (%s) is not a distinct equal node of %p (%s)", twin, twin.Key(), n, n.Key())
	}
	if b.Space.Canon(twin) != twin || b.Space.Canon(n) != twin {
		t.Fatal("B does not resolve the node and its twin to one canonical node")
	}
	var got, wantKeys []string
	for _, s := range b.Space.Successors(twin) {
		got = append(got, s.Key())
	}
	for _, s := range want {
		wantKeys = append(wantKeys, s.Key())
	}
	if fmt.Sprint(got) != fmt.Sprint(wantKeys) {
		t.Fatalf("B's successors of the twin %v, A's %v", got, wantKeys)
	}
}
