// Package vocab implements the vocabulary of Definition 2.1 in the OASSIS
// paper: two interned namespaces (element names and relation names), each
// carrying a partial order.
//
// The order convention follows the paper: a ≤ b means a is MORE GENERAL than
// b ("semantically reversed subsumption"), e.g. Sport ≤ Biking because biking
// is a sport. Orders are declared through immediate specialization edges
// (parent = more general, child = more specific) and queried after Freeze,
// which precomputes ancestor sets so that Leq runs in O(1) amortized.
package vocab

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// TermID identifies an interned element or relation name. Element IDs and
// relation IDs live in separate namespaces; a TermID is only meaningful
// together with the Kind of the variable or position it appears in.
type TermID int32

// NoTerm is returned by lookups that fail.
const NoTerm TermID = -1

// Kind distinguishes the two vocabulary namespaces.
type Kind uint8

const (
	// Element is the namespace of nouns and actions (ℰ).
	Element Kind = iota
	// Relation is the namespace of relation names (ℛ).
	Relation
)

func (k Kind) String() string {
	if k == Element {
		return "element"
	}
	return "relation"
}

// Vocabulary is the tuple (ℰ, ≤ℰ, ℛ, ≤ℛ) of Definition 2.1. A Vocabulary is
// built incrementally (AddElement, AddRelation, order edges) and must be
// frozen with Freeze before order queries; mutation after Freeze panics.
type Vocabulary struct {
	elems *namespace
	rels  *namespace
}

// New returns an empty vocabulary.
func New() *Vocabulary {
	return &Vocabulary{elems: newNamespace(), rels: newNamespace()}
}

// namespace is one interned name set with its partial order.
type namespace struct {
	names  []string
	byName map[string]TermID

	// parents[id] lists the immediate generalizations of id (p ≤ id, one
	// step). children is the reverse.
	parents  [][]TermID
	children [][]TermID

	frozen bool
	// ancestors[id] is the set of all strict generalizations of id,
	// computed at Freeze.
	ancestors []bitset
	// topo holds ids in topological order, most general first; rank is its
	// inverse (rank[topo[i]] == i), the sort key of every memoized list.
	topo []TermID
	rank []int32
	// depth[id] is the length of the longest chain from a root to id.
	depth []int
	// ancList[id] memoizes the ancestor list ElementAncestors derives from
	// the ancestors bitset: semantic-mode pattern matching walks the same
	// elements' ancestors once per stored fact, reading the shared list in
	// place. A cold entry is filled from the set bits of ancestors[id], word
	// by word, then sorted by rank — work proportional to |ℰ|/64 plus the
	// list, not a scan of the whole topo order. Filled lazily, published
	// atomically; lists are stored with no spare capacity so a caller that
	// appends to one reallocates instead of clobbering the shared backing
	// array. descList is the same memo for Descendants, filled by walking
	// children edges from id and sorted the same way.
	ancList  []atomic.Pointer[[]TermID]
	descList []atomic.Pointer[[]TermID]
}

func newNamespace() *namespace {
	return &namespace{byName: make(map[string]TermID)}
}

func (n *namespace) add(name string) (TermID, error) {
	if name == "" {
		return NoTerm, fmt.Errorf("vocab: empty term name")
	}
	if id, ok := n.byName[name]; ok {
		return id, nil
	}
	if n.frozen {
		return NoTerm, fmt.Errorf("vocab: cannot add %q to a frozen vocabulary", name)
	}
	id := TermID(len(n.names))
	n.names = append(n.names, name)
	n.byName[name] = id
	n.parents = append(n.parents, nil)
	n.children = append(n.children, nil)
	return id, nil
}

func (n *namespace) addEdge(parent, child TermID) error {
	if n.frozen {
		return fmt.Errorf("vocab: cannot add order edge to a frozen vocabulary")
	}
	if !n.valid(parent) || !n.valid(child) {
		return fmt.Errorf("vocab: order edge with unknown term (%d, %d)", parent, child)
	}
	if parent == child {
		return fmt.Errorf("vocab: self-loop on %q", n.names[parent])
	}
	for _, p := range n.parents[child] {
		if p == parent {
			return nil // already present
		}
	}
	n.parents[child] = append(n.parents[child], parent)
	n.children[parent] = append(n.children[parent], child)
	return nil
}

func (n *namespace) valid(id TermID) bool {
	return id >= 0 && int(id) < len(n.names)
}

// freeze computes the topological order and ancestor closures. It reports an
// error if the declared edges contain a cycle.
func (n *namespace) freeze() error {
	if n.frozen {
		return nil
	}
	size := len(n.names)
	indeg := make([]int, size)
	for child := range n.parents {
		indeg[child] = len(n.parents[child])
	}
	queue := make([]TermID, 0, size)
	for id := 0; id < size; id++ {
		if indeg[id] == 0 {
			queue = append(queue, TermID(id))
		}
	}
	n.topo = make([]TermID, 0, size)
	n.depth = make([]int, size)
	n.ancestors = make([]bitset, size)
	for i := range n.ancestors {
		n.ancestors[i] = newBitset(size)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n.topo = append(n.topo, id)
		for _, c := range n.children[id] {
			n.ancestors[c].or(n.ancestors[id])
			n.ancestors[c].set(int(id))
			if d := n.depth[id] + 1; d > n.depth[c] {
				n.depth[c] = d
			}
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(n.topo) != size {
		return fmt.Errorf("vocab: order contains a cycle")
	}
	n.rank = make([]int32, size)
	for i, id := range n.topo {
		n.rank[id] = int32(i)
	}
	// Deterministic neighbour order for deterministic traversal.
	for id := range n.parents {
		sortIDs(n.parents[id])
		sortIDs(n.children[id])
	}
	n.ancList = make([]atomic.Pointer[[]TermID], size)
	n.descList = make([]atomic.Pointer[[]TermID], size)
	n.frozen = true
	return nil
}

// ancestorList returns id's ancestors in topological general-first order,
// memoized. The returned slice is shared and capacity-capped: callers may
// read or append (append reallocates) but must not write elements in place.
func (n *namespace) ancestorList(id TermID) []TermID {
	if p := n.ancList[id].Load(); p != nil {
		return *p
	}
	anc := n.ancestors[id]
	out := anc.appendMembers(make([]TermID, 0, anc.count()))
	n.sortByRank(out)
	// Concurrent computations produce identical lists, so a lost race just
	// publishes an equal slice.
	n.ancList[id].Store(&out)
	return out
}

// sortByRank puts ids into topological order.
func (n *namespace) sortByRank(ids []TermID) {
	sort.Slice(ids, func(i, j int) bool { return n.rank[ids[i]] < n.rank[ids[j]] })
}

func sortIDs(ids []TermID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// leq reports whether a ≤ b, i.e. a is b itself or a generalization of b.
func (n *namespace) leq(a, b TermID) bool {
	if a == b {
		return n.valid(a)
	}
	if !n.valid(a) || !n.valid(b) {
		return false
	}
	if !n.frozen {
		panic("vocab: Leq before Freeze")
	}
	return n.ancestors[b].has(int(a))
}

// AddElement interns an element name, returning its ID. Adding an existing
// name returns the existing ID.
func (v *Vocabulary) AddElement(name string) (TermID, error) { return v.elems.add(name) }

// AddRelation interns a relation name.
func (v *Vocabulary) AddRelation(name string) (TermID, error) { return v.rels.add(name) }

// MustElement is AddElement for construction code where errors are
// programming bugs.
func (v *Vocabulary) MustElement(name string) TermID {
	id, err := v.AddElement(name)
	if err != nil {
		panic(err)
	}
	return id
}

// MustRelation is AddRelation panicking on error.
func (v *Vocabulary) MustRelation(name string) TermID {
	id, err := v.AddRelation(name)
	if err != nil {
		panic(err)
	}
	return id
}

// OrderElements declares general ≤ℰ specific (one immediate step).
func (v *Vocabulary) OrderElements(general, specific TermID) error {
	return v.elems.addEdge(general, specific)
}

// OrderRelations declares general ≤ℛ specific (one immediate step).
func (v *Vocabulary) OrderRelations(general, specific TermID) error {
	return v.rels.addEdge(general, specific)
}

// Freeze finalizes the vocabulary: it validates acyclicity and precomputes
// the closures needed by Leq and by generalization/specialization traversal.
func (v *Vocabulary) Freeze() error {
	if err := v.elems.freeze(); err != nil {
		return fmt.Errorf("elements: %w", err)
	}
	if err := v.rels.freeze(); err != nil {
		return fmt.Errorf("relations: %w", err)
	}
	return nil
}

// Frozen reports whether Freeze has completed.
func (v *Vocabulary) Frozen() bool { return v.elems.frozen && v.rels.frozen }

// Element returns the ID of an element name, or NoTerm.
func (v *Vocabulary) Element(name string) TermID {
	if id, ok := v.elems.byName[name]; ok {
		return id
	}
	return NoTerm
}

// Relation returns the ID of a relation name, or NoTerm.
func (v *Vocabulary) Relation(name string) TermID {
	if id, ok := v.rels.byName[name]; ok {
		return id
	}
	return NoTerm
}

// ElementName returns the name for an element ID ("" if invalid).
func (v *Vocabulary) ElementName(id TermID) string { return v.name(v.elems, id) }

// RelationName returns the name for a relation ID ("" if invalid).
func (v *Vocabulary) RelationName(id TermID) string { return v.name(v.rels, id) }

func (v *Vocabulary) name(n *namespace, id TermID) string {
	if !n.valid(id) {
		return ""
	}
	return n.names[id]
}

// NumElements returns |ℰ|.
func (v *Vocabulary) NumElements() int { return len(v.elems.names) }

// NumRelations returns |ℛ|.
func (v *Vocabulary) NumRelations() int { return len(v.rels.names) }

// LeqE reports a ≤ℰ b (a more general than, or equal to, b).
func (v *Vocabulary) LeqE(a, b TermID) bool { return v.elems.leq(a, b) }

// LeqR reports a ≤ℛ b.
func (v *Vocabulary) LeqR(a, b TermID) bool { return v.rels.leq(a, b) }

// Leq dispatches on kind.
func (v *Vocabulary) Leq(k Kind, a, b TermID) bool {
	if k == Element {
		return v.LeqE(a, b)
	}
	return v.LeqR(a, b)
}

// ElementParents returns the immediate generalizations of an element.
// The returned slice is shared; callers must not modify it.
func (v *Vocabulary) ElementParents(id TermID) []TermID { return v.elems.parents[id] }

// ElementChildren returns the immediate specializations of an element.
func (v *Vocabulary) ElementChildren(id TermID) []TermID { return v.elems.children[id] }

// RelationParents returns the immediate generalizations of a relation.
func (v *Vocabulary) RelationParents(id TermID) []TermID { return v.rels.parents[id] }

// RelationChildren returns the immediate specializations of a relation.
func (v *Vocabulary) RelationChildren(id TermID) []TermID { return v.rels.children[id] }

// Parents dispatches on kind.
func (v *Vocabulary) Parents(k Kind, id TermID) []TermID {
	if k == Element {
		return v.ElementParents(id)
	}
	return v.RelationParents(id)
}

// Children dispatches on kind.
func (v *Vocabulary) Children(k Kind, id TermID) []TermID {
	if k == Element {
		return v.ElementChildren(id)
	}
	return v.RelationChildren(id)
}

// ElementDepth returns the longest-chain depth of an element (roots are 0).
func (v *Vocabulary) ElementDepth(id TermID) int { return v.elems.depth[id] }

// RelationDepth returns the longest-chain depth of a relation (roots are 0).
func (v *Vocabulary) RelationDepth(id TermID) int { return v.rels.depth[id] }

// ElementsTopo returns all element IDs most-general-first. The slice is
// shared; callers must not modify it.
func (v *Vocabulary) ElementsTopo() []TermID { return v.elems.topo }

// RelationsTopo returns all relation IDs most-general-first.
func (v *Vocabulary) RelationsTopo() []TermID { return v.rels.topo }

// ElementDescendants returns id and every element e with id ≤ℰ e, in
// topological (general-first) order. The result is memoized and shared;
// callers must not modify it in place.
func (v *Vocabulary) ElementDescendants(id TermID) []TermID {
	return descendants(v.elems, id)
}

// RelationDescendants returns id and every relation r with id ≤ℛ r. The
// result is memoized and shared; callers must not modify it in place.
func (v *Vocabulary) RelationDescendants(id TermID) []TermID {
	return descendants(v.rels, id)
}

func descendants(n *namespace, id TermID) []TermID {
	if !n.valid(id) {
		return nil
	}
	if !n.frozen {
		panic("vocab: Descendants before Freeze")
	}
	if p := n.descList[id].Load(); p != nil {
		return *p
	}
	// Collect the cone by walking children edges from id, so the cost
	// follows the cone's size, then put it into topological order.
	seen := newBitset(len(n.names))
	seen.set(int(id))
	out := []TermID{id}
	for i := 0; i < len(out); i++ {
		for _, c := range n.children[out[i]] {
			if !seen.has(int(c)) {
				seen.set(int(c))
				out = append(out, c)
			}
		}
	}
	n.sortByRank(out)
	out = out[:len(out):len(out)]
	n.descList[id].Store(&out)
	return out
}

// ElementAncestors returns every strict generalization of id in topological
// general-first order. The result is memoized and shared: callers read it in
// place (semantic matching walks it, then id itself, without building a
// list) and must not write its elements; an append reallocates, since the
// list is stored capacity-capped.
func (v *Vocabulary) ElementAncestors(id TermID) []TermID {
	n := v.elems
	if !n.valid(id) {
		return nil
	}
	if !n.frozen {
		panic("vocab: Ancestors before Freeze")
	}
	return n.ancestorList(id)
}

// ElementRoots returns the most general elements (those with no parents).
func (v *Vocabulary) ElementRoots() []TermID { return roots(v.elems) }

// RelationRoots returns the most general relations.
func (v *Vocabulary) RelationRoots() []TermID { return roots(v.rels) }

func roots(n *namespace) []TermID {
	var out []TermID
	for id := range n.names {
		if len(n.parents[id]) == 0 {
			out = append(out, TermID(id))
		}
	}
	return out
}
