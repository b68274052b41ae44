package sparql

import (
	"fmt"
	"sort"
	"strings"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// clone copies a binding.
func (b Binding) clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// EvalInterpreted is the seed's recursive map-based matcher, kept in a
// test file as the reference oracle: the differential tests and
// BenchmarkWhereEval pin the compiled plan against it.
func (e *Evaluator) EvalInterpreted(bgp BGP) ([]Binding, error) {
	if err := e.validate(bgp); err != nil {
		return nil, err
	}
	var out []Binding
	e.match(orderPatterns(bgp), Binding{}, &out)
	sortBindings(out)
	return dedupeBindings(out), nil
}

// orderPatterns sorts patterns most-selective-first: constants and literals
// score higher than variables. A simple static heuristic is enough because
// the recursive matcher re-binds as it goes.
func orderPatterns(bgp BGP) BGP {
	scored := make(BGP, len(bgp))
	copy(scored, bgp)
	score := func(p Pattern) int {
		s := 0
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.Kind == Const || t.Kind == Literal {
				s++
			}
		}
		return s
	}
	sort.SliceStable(scored, func(i, j int) bool { return score(scored[i]) > score(scored[j]) })
	return scored
}

func (e *Evaluator) match(patterns BGP, b Binding, out *[]Binding) {
	if len(patterns) == 0 {
		*out = append(*out, b.clone())
		return
	}
	// Pick the pattern with the most positions bound under the current
	// binding; this keeps intermediate result sets small.
	best, bestScore := 0, -1
	for i, p := range patterns {
		s := 0
		for _, t := range []Term{p.S, p.P, p.O} {
			switch t.Kind {
			case Const, Literal:
				s += 2
			case Var:
				if _, ok := b[t.Name]; ok {
					s += 2
				}
			}
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	p := patterns[best]
	rest := make(BGP, 0, len(patterns)-1)
	rest = append(rest, patterns[:best]...)
	rest = append(rest, patterns[best+1:]...)

	e.matchPattern(p, b, func(nb Binding) {
		e.match(rest, nb, out)
	})
}

// resolve returns the concrete term a pattern position denotes under the
// binding, or ok=false if it is still free.
func resolve(t Term, b Binding) (vocab.TermID, bool) {
	switch t.Kind {
	case Const:
		return t.ID, true
	case Var:
		id, ok := b[t.Name]
		return id, ok
	}
	return 0, false
}

// bind extends the binding for a var term; wildcard and resolved terms pass
// through. It reports false when the term is a var already bound to a
// different value.
func bind(t Term, id vocab.TermID, b Binding) (Binding, bool) {
	if t.Kind != Var {
		return b, true
	}
	if prev, ok := b[t.Name]; ok {
		return b, prev == id
	}
	nb := b.clone()
	nb[t.Name] = id
	return nb, true
}

// matchPattern enumerates all extensions of b that satisfy p, invoking k for
// each.
func (e *Evaluator) matchPattern(p Pattern, b Binding, k func(Binding)) {
	if p.O.Kind == Literal {
		e.matchLabel(p, b, k)
		return
	}
	if p.Star {
		e.matchStar(p, b, k)
		return
	}
	e.matchTriple(p, b, k)
}

func (e *Evaluator) matchLabel(p Pattern, b Binding, k func(Binding)) {
	if s, ok := resolve(p.S, b); ok {
		if e.store.HasLabel(s, p.O.Lit) {
			k(b)
		}
		return
	}
	for _, s := range e.store.LabeledElements(p.O.Lit) {
		if nb, ok := bind(p.S, s, b); ok {
			k(nb)
		}
	}
}

// matchStar matches `S p* O`: O is reachable from S by zero or more p-edges
// over the stored triples.
func (e *Evaluator) matchStar(p Pattern, b Binding, k func(Binding)) {
	pred := p.P.ID
	s, sOK := resolve(p.S, b)
	o, oOK := resolve(p.O, b)
	switch {
	case sOK && oOK:
		if e.reaches(s, pred, o) {
			k(b)
		}
	case sOK:
		for _, t := range e.forwardClosure(s, pred) {
			if nb, ok := bind(p.O, t, b); ok {
				k(nb)
			}
		}
	case oOK:
		for _, t := range e.backwardClosure(o, pred) {
			if nb, ok := bind(p.S, t, b); ok {
				k(nb)
			}
		}
	default:
		// Both free: the store's precomputed reachability relation already
		// holds every (subject-closure ∪ zero-length) pair, sorted and
		// duplicate-free — no per-call dedup map needed.
		for _, edge := range e.store.ClosurePairs(pred) {
			if nb, ok := bind(p.S, edge.S, b); ok {
				if nb2, ok := bind(p.O, edge.O, nb); ok {
					k(nb2)
				}
			}
		}
	}
}

// reaches reports a path of zero or more pred-edges from s to o. The store
// either answers from its closure index or runs an early-exit BFS; the full
// closure is never materialized just to probe one target.
func (e *Evaluator) reaches(s, pred, o vocab.TermID) bool {
	return e.store.Reaches(s, pred, o)
}

// forwardClosure returns s plus everything reachable from s via pred edges,
// sorted, backed by the store's memoized closure index.
func (e *Evaluator) forwardClosure(s, pred vocab.TermID) []vocab.TermID {
	if l := e.store.ForwardClosure(s, pred); l != nil {
		return l
	}
	return []vocab.TermID{s}
}

// backwardClosure returns o plus everything that reaches o via pred edges.
func (e *Evaluator) backwardClosure(o, pred vocab.TermID) []vocab.TermID {
	if l := e.store.BackwardClosure(o, pred); l != nil {
		return l
	}
	return []vocab.TermID{o}
}

// matchTriple matches a plain triple pattern.
func (e *Evaluator) matchTriple(p Pattern, b Binding, k func(Binding)) {
	preds := e.candidatePredicates(p, b)
	for _, pred := range preds {
		e.matchTripleWithPred(p, pred, b, k)
	}
}

func (e *Evaluator) candidatePredicates(p Pattern, b Binding) []vocab.TermID {
	if id, ok := resolve(p.P, b); ok {
		if e.Semantic {
			// A pattern predicate q matches any stored predicate
			// q' with q ≤ q'.
			var out []vocab.TermID
			for _, sp := range e.store.Predicates() {
				if e.v.LeqR(id, sp) {
					out = append(out, sp)
				}
			}
			return out
		}
		return []vocab.TermID{id}
	}
	return e.store.Predicates()
}

// matchTripleWithPred matches the pattern against facts stored under a
// concrete predicate. In semantic mode the subject/object of a matching
// stored fact may be specializations of the pattern's terms, so free
// variables additionally range over generalizations of the stored values.
func (e *Evaluator) matchTripleWithPred(p Pattern, pred vocab.TermID, b Binding, k func(Binding)) {
	// Bind the predicate variable if present. In semantic mode the
	// variable binds to the pattern-side value, which is the stored
	// predicate itself here (enumerated by candidatePredicates).
	b, ok := bind(p.P, pred, b)
	if !ok {
		return
	}
	s, sOK := resolve(p.S, b)
	o, oOK := resolve(p.O, b)
	if !e.Semantic {
		switch {
		case sOK && oOK:
			if e.store.Has(ontology.Fact{S: s, P: pred, O: o}) {
				k(b)
			}
		case sOK:
			for _, obj := range e.store.Objects(s, pred) {
				if nb, ok := bind(p.O, obj, b); ok {
					k(nb)
				}
			}
		case oOK:
			for _, subj := range e.store.Subjects(pred, o) {
				if nb, ok := bind(p.S, subj, b); ok {
					k(nb)
				}
			}
		default:
			for _, f := range e.store.FactsWithPredicate(pred) {
				if nb, ok := bind(p.S, f.S, b); ok {
					if nb2, ok := bind(p.O, f.O, nb); ok {
						k(nb2)
					}
				}
			}
		}
		return
	}
	// Semantic mode: a stored fact g witnesses pattern fact f when f ≤ g.
	for _, g := range e.store.FactsWithPredicate(pred) {
		if sOK && !e.v.LeqE(s, g.S) {
			continue
		}
		if oOK && !e.v.LeqE(o, g.O) {
			continue
		}
		subjects := []vocab.TermID{g.S}
		if !sOK && p.S.Kind == Var {
			subjects = append(e.v.ElementAncestors(g.S), g.S)
		}
		objects := []vocab.TermID{g.O}
		if !oOK && p.O.Kind == Var {
			objects = append(e.v.ElementAncestors(g.O), g.O)
		}
		for _, sv := range subjects {
			nb, ok := bind(p.S, sv, b)
			if !ok {
				continue
			}
			for _, ov := range objects {
				if nb2, ok := bind(p.O, ov, nb); ok {
					k(nb2)
				}
			}
		}
	}
}

// sortBindings orders bindings deterministically by their sorted
// (name, value) pairs.
func sortBindings(bs []Binding) {
	sort.Slice(bs, func(i, j int) bool {
		return bindingKey(bs[i]) < bindingKey(bs[j])
	})
}

func dedupeBindings(bs []Binding) []Binding {
	out := bs[:0]
	prev := ""
	for i, b := range bs {
		k := bindingKey(b)
		if i == 0 || k != prev {
			out = append(out, b)
		}
		prev = k
	}
	return out
}

func bindingKey(b Binding) string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%d;", n, b[n])
	}
	return sb.String()
}
