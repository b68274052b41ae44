package ontology

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"oassis/internal/vocab"
)

// Store is the ontology: a fact-set of universal truths with indexes for
// triple-pattern matching, plus string labels attached to elements (used by
// patterns such as `$x hasLabel "child-friendly"`).
//
// A Store is built incrementally and frozen together with its vocabulary
// before query evaluation. Add only appends; Freeze deduplicates the facts
// and lays them out in three sorted orders (see DESIGN.md §12). Every
// lookup is defined on a frozen store only.
type Store struct {
	v       *vocab.Vocabulary
	pending []Fact // facts added before Freeze, duplicates included

	labels map[vocab.TermID]map[string]bool // element -> label set

	frozen bool

	// Frozen columns. pso holds every distinct fact in (P,S,O) order;
	// pOff[p]:pOff[p+1] is predicate p's range. The (S,P,O) order is kept
	// as the columns spP/spO with subject offsets sOff, the (O,P,S) order
	// as opP/opS with object offsets oOff.
	pso        []Fact
	pOff       []int
	sOff, oOff []int
	spP, spO   []vocab.TermID
	opP, opS   []vocab.TermID

	// Frozen-store memos. predList and labelIdx are built once at Freeze;
	// the per-predicate closure indexes and stats are built lazily, on
	// first use, under closeMu (see closure.go) so concurrent evaluators
	// share one computation.
	predList []vocab.TermID
	labelIdx map[string][]vocab.TermID

	closeMu   sync.RWMutex
	closures  map[vocab.TermID]*pathClosure
	predStats map[vocab.TermID]predStat

	// Closure index temperature, readable lock-free via ClosureStats():
	// cold counts index builds, warm counts lookups served memoized.
	closureCold atomic.Int64
	closureWarm atomic.Int64

	// planMemo is an opaque memo slot for frozen-store consumers: the
	// sparql plan cache hangs its per-store compiled-plan table here, so
	// cached artifacts share the store's lifetime instead of leaking
	// through a process-global table.
	planMemo sync.Map
}

// PlanMemo exposes the store's consumer memo slot (see the field comment).
// Entries should only be added once the store is frozen.
func (s *Store) PlanMemo() *sync.Map { return &s.planMemo }

// ClosureCacheStats is a snapshot of the closure index counters.
type ClosureCacheStats struct {
	Cold int64 // per-predicate closure indexes built
	Warm int64 // closure lookups served from the memo
}

// ClosureStats snapshots how often path-closure lookups hit the memoized
// index (warm) versus built it (cold).
func (s *Store) ClosureStats() ClosureCacheStats {
	return ClosureCacheStats{Cold: s.closureCold.Load(), Warm: s.closureWarm.Load()}
}

// NewStore returns an empty ontology over the given vocabulary.
func NewStore(v *vocab.Vocabulary) *Store {
	return &Store{
		v:         v,
		labels:    make(map[vocab.TermID]map[string]bool),
		closures:  make(map[vocab.TermID]*pathClosure),
		predStats: make(map[vocab.TermID]predStat),
	}
}

// Vocabulary returns the vocabulary the store is defined over.
func (s *Store) Vocabulary() *vocab.Vocabulary { return s.v }

// Add inserts a fact. Duplicate inserts are ignored. Fact positions must
// hold term IDs, not the Any wildcard.
func (s *Store) Add(f Fact) error {
	if s.frozen {
		return fmt.Errorf("ontology: Add after Freeze")
	}
	if f.S < 0 || f.P < 0 || f.O < 0 {
		return fmt.Errorf("ontology: fact %v holds a negative term ID", f)
	}
	s.pending = append(s.pending, f)
	return nil
}

// MustAdd is Add panicking on error, for construction code.
func (s *Store) MustAdd(f Fact) {
	if err := s.Add(f); err != nil {
		panic(err)
	}
}

// AddLabel attaches a string label to an element.
func (s *Store) AddLabel(e vocab.TermID, label string) error {
	if s.frozen {
		return fmt.Errorf("ontology: AddLabel after Freeze")
	}
	m := s.labels[e]
	if m == nil {
		m = make(map[string]bool)
		s.labels[e] = m
	}
	m[label] = true
	return nil
}

// HasLabel reports whether the element carries the label.
func (s *Store) HasLabel(e vocab.TermID, label string) bool {
	return s.labels[e][label]
}

// LabeledElements returns all elements carrying the label, sorted by ID.
// The result is a shared index slice; do not modify it.
func (s *Store) LabeledElements(label string) []vocab.TermID {
	return s.labelIdx[label]
}

// Freeze builds the sorted columns; the store becomes immutable.
//
// Term IDs are dense, so each order comes from stable counting sorts
// (linear in facts plus IDs): the pending facts are sorted by O, then S,
// then P, which leaves them in (P,S,O) order with duplicates adjacent.
// Scattering that order stably by subject yields (S,P,O), and by object
// (O,P,S).
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	var nE, nP vocab.TermID
	for _, f := range s.pending {
		nE = max(nE, f.S+1, f.O+1)
		nP = max(nP, f.P+1)
	}
	a, b := s.pending, make([]Fact, len(s.pending))
	countingSort(b, a, int(nE), func(f *Fact) vocab.TermID { return f.O })
	countingSort(a, b, int(nE), func(f *Fact) vocab.TermID { return f.S })
	countingSort(b, a, int(nP), func(f *Fact) vocab.TermID { return f.P })
	s.pso = b[:0]
	for i, f := range b {
		if i == 0 || f != b[i-1] {
			s.pso = append(s.pso, f)
		}
	}
	s.pending = nil

	s.pOff = bucketOffsets(s.pso, int(nP), func(f *Fact) vocab.TermID { return f.P })
	s.sOff, s.spP, s.spO = scatter(s.pso, int(nE),
		func(f *Fact) (key, a, b vocab.TermID) { return f.S, f.P, f.O })
	s.oOff, s.opP, s.opS = scatter(s.pso, int(nE),
		func(f *Fact) (key, a, b vocab.TermID) { return f.O, f.P, f.S })

	for p := 0; p < int(nP); p++ {
		if s.pOff[p+1] > s.pOff[p] {
			s.predList = append(s.predList, vocab.TermID(p))
		}
	}
	s.labelIdx = make(map[string][]vocab.TermID)
	for e, m := range s.labels {
		for label := range m {
			s.labelIdx[label] = append(s.labelIdx[label], e)
		}
	}
	for label := range s.labelIdx {
		ids := s.labelIdx[label]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	s.frozen = true
}

// countingSort stably orders src into dst by key, which lies in [0, n).
func countingSort(dst, src []Fact, n int, key func(*Fact) vocab.TermID) {
	next := bucketOffsets(src, n, key)
	for i := range src {
		k := key(&src[i])
		dst[next[k]] = src[i]
		next[k]++
	}
}

// scatter stably lays facts out by the key that split returns, keeping the
// other two positions as columns, and returns the n+1 key offsets with the
// columns.
func scatter(facts []Fact, n int, split func(*Fact) (key, a, b vocab.TermID)) (off []int, colA, colB []vocab.TermID) {
	off = bucketOffsets(facts, n, func(f *Fact) vocab.TermID { k, _, _ := split(f); return k })
	next := append([]int(nil), off[:n]...)
	colA = make([]vocab.TermID, len(facts))
	colB = make([]vocab.TermID, len(facts))
	for i := range facts {
		k, x, y := split(&facts[i])
		colA[next[k]], colB[next[k]] = x, y
		next[k]++
	}
	return off, colA, colB
}

// bucketOffsets counts facts per key in [0, n) and returns the n+1 prefix
// offsets: bucket k spans [off[k], off[k+1]).
func bucketOffsets(facts []Fact, n int, key func(*Fact) vocab.TermID) []int {
	off := make([]int, n+1)
	for i := range facts {
		off[key(&facts[i])+1]++
	}
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	return off
}

// bucket returns the range of off's bucket k, empty when k is out of range.
func bucket(off []int, k vocab.TermID) (lo, hi int) {
	if k < 0 || int(k)+1 >= len(off) {
		return 0, 0
	}
	return off[k], off[k+1]
}

// narrow narrows the sorted keys[lo:hi] to the entries equal to k.
func narrow(keys []vocab.TermID, lo, hi int, k vocab.TermID) (int, int) {
	ks := keys[lo:hi]
	i := sort.Search(len(ks), func(i int) bool { return ks[i] >= k })
	j := i + sort.Search(len(ks)-i, func(j int) bool { return ks[i+j] > k })
	return lo + i, lo + j
}

// Size returns the number of stored facts.
func (s *Store) Size() int { return len(s.pso) }

// Has reports exact membership of a fact.
func (s *Store) Has(f Fact) bool {
	objs := s.Objects(f.S, f.P)
	i := sort.Search(len(objs), func(i int) bool { return objs[i] >= f.O })
	return i < len(objs) && objs[i] == f.O
}

// ImpliesFact reports whether the ontology semantically implies f, i.e.
// some stored fact g satisfies f ≤ g (Definition 2.5 applied to 𝒪).
func (s *Store) ImpliesFact(f Fact) bool {
	if s.Has(f) {
		return true
	}
	// Any stored fact with predicate p' ≥ f.P may witness the implication.
	for _, p := range s.Predicates() {
		if !s.v.LeqR(f.P, p) {
			continue
		}
		for _, g := range s.FactsWithPredicate(p) {
			if s.v.LeqE(f.S, g.S) && s.v.LeqE(f.O, g.O) {
				return true
			}
		}
	}
	return false
}

// Objects returns the objects o such that ⟨s, p, o⟩ is stored, sorted.
// The returned slice is shared; callers must not modify it.
func (s *Store) Objects(subj, pred vocab.TermID) []vocab.TermID {
	lo, hi := bucket(s.sOff, subj)
	lo, hi = narrow(s.spP, lo, hi, pred)
	return s.spO[lo:hi:hi]
}

// Subjects returns the subjects x such that ⟨x, p, o⟩ is stored, sorted.
// The returned slice is shared; callers must not modify it.
func (s *Store) Subjects(pred, obj vocab.TermID) []vocab.TermID {
	lo, hi := bucket(s.oOff, obj)
	lo, hi = narrow(s.opP, lo, hi, pred)
	return s.opS[lo:hi:hi]
}

// FactsWithPredicate returns all stored facts with the given predicate,
// sorted. The returned slice is shared; callers must not modify it.
func (s *Store) FactsWithPredicate(p vocab.TermID) []Fact {
	lo, hi := bucket(s.pOff, p)
	return s.pso[lo:hi:hi]
}

// Predicates returns the relations that appear in at least one stored fact,
// sorted by ID. The result is a shared index slice; do not modify it.
func (s *Store) Predicates() []vocab.TermID { return s.predList }

// AllFacts returns every stored fact as a canonical fact-set.
func (s *Store) AllFacts() FactSet {
	out := make(FactSet, 0, len(s.pso))
	for subj := 0; subj+1 < len(s.sOff); subj++ {
		for i := s.sOff[subj]; i < s.sOff[subj+1]; i++ {
			out = append(out, Fact{S: vocab.TermID(subj), P: s.spP[i], O: s.spO[i]})
		}
	}
	return out
}
