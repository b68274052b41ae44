package ontology_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// refIndex is a map-based reference for the frozen store's lookups: a fact
// set plus (S,P)→objects, (P,O)→subjects and P→facts, each slice sorted
// (facts by Fact.Less).
type refIndex struct {
	facts map[ontology.Fact]bool
	bySP  map[[2]vocab.TermID][]vocab.TermID
	byPO  map[[2]vocab.TermID][]vocab.TermID
	byP   map[vocab.TermID][]ontology.Fact
}

func newRefIndex(facts []ontology.Fact) *refIndex {
	r := &refIndex{
		facts: make(map[ontology.Fact]bool),
		bySP:  make(map[[2]vocab.TermID][]vocab.TermID),
		byPO:  make(map[[2]vocab.TermID][]vocab.TermID),
		byP:   make(map[vocab.TermID][]ontology.Fact),
	}
	for _, f := range facts {
		if r.facts[f] {
			continue
		}
		r.facts[f] = true
		r.bySP[[2]vocab.TermID{f.S, f.P}] = append(r.bySP[[2]vocab.TermID{f.S, f.P}], f.O)
		r.byPO[[2]vocab.TermID{f.P, f.O}] = append(r.byPO[[2]vocab.TermID{f.P, f.O}], f.S)
		r.byP[f.P] = append(r.byP[f.P], f)
	}
	for _, ids := range r.bySP {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	for _, ids := range r.byPO {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	for _, fs := range r.byP {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
	}
	return r
}

func (r *refIndex) predicates() []vocab.TermID {
	var out []vocab.TermID
	for p := range r.byP {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestStoreMatchesReferenceIndex builds random stores — duplicate facts,
// sparse IDs, predicates with no fact — and requires every lookup of the
// frozen column store to equal the reference index, probing with the Any
// wildcard, NoTerm and IDs past the largest stored one as well.
func TestStoreMatchesReferenceIndex(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			v := vocab.New()
			for i := 0; i < 300; i++ {
				v.MustElement(fmt.Sprintf("e%d", i))
			}
			for i := 0; i < 20; i++ {
				v.MustRelation(fmt.Sprintf("r%d", i))
			}
			if err := v.Freeze(); err != nil {
				t.Fatal(err)
			}
			// Sparse ID pools: a few scattered elements and relations,
			// so most IDs below the largest one carry no fact.
			pool := func(n, limit int) []vocab.TermID {
				out := make([]vocab.TermID, n)
				for i := range out {
					out[i] = vocab.TermID(rng.Intn(limit))
				}
				return out
			}
			elems := pool(1+rng.Intn(25), 300)
			rels := pool(1+rng.Intn(5), 20)
			var added []ontology.Fact
			s := ontology.NewStore(v)
			for i, n := 0, rng.Intn(400); i < n; i++ {
				f := ontology.Fact{S: elems[rng.Intn(len(elems))], P: rels[rng.Intn(len(rels))], O: elems[rng.Intn(len(elems))]}
				if len(added) > 0 && rng.Intn(4) == 0 {
					f = added[rng.Intn(len(added))] // duplicate
				}
				s.MustAdd(f)
				added = append(added, f)
			}
			s.Freeze()
			ref := newRefIndex(added)

			if s.Size() != len(ref.facts) {
				t.Fatalf("Size = %d, want %d", s.Size(), len(ref.facts))
			}
			if got, want := s.Predicates(), ref.predicates(); !equalIDs(got, want) {
				t.Fatalf("Predicates = %v, want %v", got, want)
			}
			all := s.AllFacts()
			if want := ontology.NewFactSet(added...); len(all) != len(want) || !all.Equal(want) {
				t.Fatalf("AllFacts = %v, want %v", all, want)
			}

			eprobe := append(append([]vocab.TermID{}, elems...), ontology.Any, vocab.NoTerm, 299, 300, 1<<20)
			rprobe := append(append([]vocab.TermID{}, rels...), ontology.Any, vocab.NoTerm, 0, 19, 20, 1<<20)
			for _, p := range rprobe {
				got, want := s.FactsWithPredicate(p), ref.byP[p]
				if len(got) != len(want) {
					t.Fatalf("FactsWithPredicate(%d) = %v, want %v", p, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("FactsWithPredicate(%d)[%d] = %v, want %v", p, i, got[i], want[i])
					}
				}
				for _, a := range eprobe {
					if got, want := s.Objects(a, p), ref.bySP[[2]vocab.TermID{a, p}]; !equalIDs(got, want) {
						t.Fatalf("Objects(%d, %d) = %v, want %v", a, p, got, want)
					}
					if got, want := s.Subjects(p, a), ref.byPO[[2]vocab.TermID{p, a}]; !equalIDs(got, want) {
						t.Fatalf("Subjects(%d, %d) = %v, want %v", p, a, got, want)
					}
					for _, b := range eprobe {
						f := ontology.Fact{S: a, P: p, O: b}
						if s.Has(f) != ref.facts[f] {
							t.Fatalf("Has(%v) = %v, want %v", f, s.Has(f), ref.facts[f])
						}
					}
				}
			}

			if err := s.Add(ontology.Fact{S: elems[0], P: rels[0], O: elems[0]}); err == nil {
				t.Fatal("Add after Freeze succeeded")
			}
			if err := s.AddLabel(elems[0], "x"); err == nil {
				t.Fatal("AddLabel after Freeze succeeded")
			}
		})
	}
}

// TestStoreRejectsWildcardFacts: the Any wildcard and NoTerm are no term
// IDs, so the store refuses to hold them.
func TestStoreRejectsWildcardFacts(t *testing.T) {
	v := vocab.New()
	e := v.MustElement("e")
	r := v.MustRelation("r")
	s := ontology.NewStore(v)
	for _, f := range []ontology.Fact{
		{S: ontology.Any, P: r, O: e},
		{S: e, P: vocab.NoTerm, O: e},
		{S: e, P: r, O: ontology.Any},
	} {
		if err := s.Add(f); err == nil {
			t.Errorf("Add(%v) succeeded", f)
		}
	}
	s.Freeze()
	if s.Size() != 0 || len(s.Predicates()) != 0 || len(s.AllFacts()) != 0 {
		t.Fatalf("empty store: size %d, predicates %v", s.Size(), s.Predicates())
	}
}
