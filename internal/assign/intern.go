package assign

import (
	"sync"
	"sync/atomic"
)

// NodeID is the dense integer identity of a canonical assignment within one
// Space. The interner assigns IDs in materialization order starting at 0, so
// every per-space structure (classifier verdicts, edge caches, kernel state)
// can be keyed by a machine word — or indexed into a slice — instead of
// hashing the canonical key string on every hot-path lookup.
type NodeID uint32

// noID marks an assignment that has not been interned into any space.
const noID = ^NodeID(0)

// ID returns the assignment's dense identity within the space that interned
// it, or NoID for an assignment built outside a space (use Space.Canon to
// obtain the interned twin).
func (a *Assignment) ID() NodeID { return a.id }

// NoID is the ID of an assignment no space has interned.
const NoID = noID

// interner deduplicates assignments structurally and assigns dense NodeIDs.
// It doubles as the shared edge cache: successor and predecessor lists are
// computed once per node and shared by every driver, user and re-run over
// the space. All fields are guarded by mu (held by the Space's public
// methods); nodes are immutable once published. mu is a RWMutex so the
// steady-state hit path — an already-interned node whose edge lists are
// memoized — runs under a shared read lock; only cache fills take the
// write lock. Every published node carries its owning interner in
// Assignment.owner, so the canonical check needs no lock at all. The stats
// counters are atomics updated outside any lock.
type interner struct {
	mu sync.RWMutex

	// Hit/miss accounting, readable without the lock via Space.Stats().
	internHits   atomic.Int64 // intern() found an existing node
	internMisses atomic.Int64 // intern() registered a new node
	edgeHits     atomic.Int64 // Successors/Predecessors served memoized
	edgeMisses   atomic.Int64 // Successors/Predecessors had to compute

	// nodes[id] is the canonical assignment with that ID.
	nodes []*Assignment
	// buckets maps a structural hash to the IDs that share it.
	buckets map[uint64][]NodeID

	// succs[id]/preds[id] are the memoized edge lists; the *Done flags
	// distinguish "not computed" from "computed empty".
	succs    [][]*Assignment
	succDone []bool
	preds    [][]*Assignment
	predDone []bool

	// closure[id] memoizes InClosure per node (0 unknown, 1 in, 2 out).
	closure []uint8

	// roots memoizes the space's minimal assignments.
	roots     []*Assignment
	rootsDone bool
}

func newInterner() *interner {
	return &interner{buckets: make(map[uint64][]NodeID)}
}

// intern returns the canonical node equal to a, registering a (and assigning
// it the next dense ID) when no equal node exists. A node another interner
// already owns keeps its ID there: this interner registers a shallow copy
// instead. The caller must hold mu. The second result reports whether a new
// node was registered.
func (in *interner) intern(a *Assignment) (*Assignment, bool) {
	h := a.hash()
	for _, id := range in.buckets[h] {
		if in.nodes[id].equal(a) {
			in.internHits.Add(1)
			return in.nodes[id], false
		}
	}
	if a.owner.Load() != nil {
		a = &Assignment{names: a.names, kinds: a.kinds, vals: a.vals, more: a.more}
	}
	id := NodeID(len(in.nodes))
	a.id = id
	// Publish the owner tag only after the ID is written: a lock-free
	// reader that sees the tag then sees the ID too.
	a.owner.Store(in)
	in.nodes = append(in.nodes, a)
	in.buckets[h] = append(in.buckets[h], id)
	in.internMisses.Add(1)
	return a, true
}

// canonical reports whether a is this interner's published node. It reads
// only the node's atomic owner tag, so it is safe with or without mu.
func (in *interner) canonical(a *Assignment) bool { return a.owner.Load() == in }

// grow extends the per-node side tables to cover every interned ID.
func (in *interner) grow() {
	n := len(in.nodes)
	for len(in.succs) < n {
		in.succs = append(in.succs, nil)
		in.succDone = append(in.succDone, false)
		in.preds = append(in.preds, nil)
		in.predDone = append(in.predDone, false)
		in.closure = append(in.closure, 0)
	}
}

// hash is a structural FNV-1a over the canonical content: variable names,
// kinds, value sets and MORE facts. Equal assignments hash equally; the
// interner resolves collisions with equal.
func (a *Assignment) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(x uint64) {
		h ^= x
		h *= prime64
	}
	for i, n := range a.names {
		for j := 0; j < len(n); j++ {
			step(uint64(n[j]))
		}
		step(0xFF)
		step(uint64(a.kinds[i]))
		for _, id := range a.vals[i] {
			step(uint64(uint32(id)))
		}
		step(0xFE)
	}
	for _, f := range a.more {
		step(uint64(uint32(f.S)))
		step(uint64(uint32(f.P)))
		step(uint64(uint32(f.O)))
	}
	return h
}

// equal reports structural equality of two canonical assignments.
func (a *Assignment) equal(b *Assignment) bool {
	if a == b {
		return true
	}
	if len(a.names) != len(b.names) || len(a.more) != len(b.more) {
		return false
	}
	for i, n := range a.names {
		if n != b.names[i] || a.kinds[i] != b.kinds[i] {
			return false
		}
		av, bv := a.vals[i], b.vals[i]
		if len(av) != len(bv) {
			return false
		}
		for j, x := range av {
			if x != bv[j] {
				return false
			}
		}
	}
	for i, f := range a.more {
		if f != b.more[i] {
			return false
		}
	}
	return true
}
