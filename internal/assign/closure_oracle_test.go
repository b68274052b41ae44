package assign_test

import (
	"fmt"
	"math/rand"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/ontology"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// This file keeps the name-keyed closure and validity scans that the column
// table replaced, and the Leq loop the progress tracker ran per mark, as
// reference oracles for the production paths.

// oracleProducts reports whether test holds for every singleton product of
// a's value sets over the bound variables that a binds.
func oracleProducts(s *assign.Space, a *assign.Assignment, bound []assign.VarSpec, test func([]assign.VarSpec, []vocab.TermID) bool) bool {
	pick := make([]vocab.TermID, len(bound))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(bound) {
			return test(bound, pick)
		}
		for _, v := range a.Values(bound[i].Name) {
			pick[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// oracleInClosure is Space.InClosure with the valid assignments scanned by
// variable name and no memo.
func oracleInClosure(s *assign.Space, a *assign.Assignment) bool {
	v := s.Vocabulary()
	var bound []assign.VarSpec
	for _, vs := range s.Vars() {
		if vs.Bound && len(a.Values(vs.Name)) > 0 {
			bound = append(bound, vs)
		}
	}
	covered := func(bound []assign.VarSpec, pick []vocab.TermID) bool {
		for _, psi := range s.Valid() {
			ok := true
			for i, vs := range bound {
				pv := psi.Values(vs.Name)
				if len(pv) != 1 || !v.Leq(vs.Kind, pick[i], pv[0]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	if !oracleProducts(s, a, bound, covered) {
		return false
	}
	for _, f := range a.More() {
		ok := false
		for _, g := range s.MorePool() {
			if ontology.LeqFact(v, f, g) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// oracleIsValid is Space.IsValid with the valid assignments scanned by
// variable name and no memo.
func oracleIsValid(s *assign.Space, a *assign.Assignment) bool {
	var bound []assign.VarSpec
	for _, vs := range s.Vars() {
		n := len(a.Values(vs.Name))
		if !vs.Mult.Allows(n) {
			return false
		}
		if vs.Bound && n > 0 {
			bound = append(bound, vs)
		} else if vs.Bound && vs.Mult.Min > 0 {
			return false
		}
	}
	agrees := func(bound []assign.VarSpec, pick []vocab.TermID) bool {
		for _, psi := range s.Valid() {
			ok := true
			for i, vs := range bound {
				pv := psi.Values(vs.Name)
				if len(pv) != 1 || pv[0] != pick[i] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	return oracleProducts(s, a, bound, agrees)
}

// oracleDropClassified is the per-mark Space.Leq loop of the progress
// tracker: it keeps the valid assignments a mark on a leaves unclassified.
func oracleDropClassified(s *assign.Space, unclassified []*assign.Assignment, a *assign.Assignment, sig bool) []*assign.Assignment {
	var rest []*assign.Assignment
	for _, psi := range unclassified {
		var classified bool
		if sig {
			classified = s.Leq(psi, a)
		} else {
			classified = s.Leq(a, psi)
		}
		if !classified {
			rest = append(rest, psi)
		}
	}
	return rest
}

// oracleSpaces returns the spaces the column-table oracle tests sweep:
// random Section 6.4 DAGs and the three generated Section 6.3 domains.
func oracleSpaces(t *testing.T) map[string]*assign.Space {
	t.Helper()
	out := map[string]*assign.Space{}
	for _, seed := range []int64{3, 41, 97} {
		out[fmt.Sprintf("dag-%d", seed)] = randomSpace(t, seed).Space
	}
	for _, cfg := range []synth.DomainConfig{synth.Travel(8, 1), synth.Culinary(8, 2), synth.SelfTreatment(8, 3)} {
		d, err := synth.NewDomain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[cfg.Name] = d.Space
	}
	return out
}

// oracleCandidates walks the space from its roots and returns every node
// reached, plus for each a specialization down to vocabulary leaves, a
// random-term substitution and a value-set union built outside the space; those need not lie in the closure or be
// valid, so both verdicts of each check get exercised.
func oracleCandidates(s *assign.Space, rng *rand.Rand, walks, steps int) []*assign.Assignment {
	v := s.Vocabulary()
	var out, reached []*assign.Assignment
	roots := s.Roots()
	for w := 0; w < walks; w++ {
		cur := roots[rng.Intn(len(roots))]
		for i := 0; ; i++ {
			reached = append(reached, cur)
			succs := s.Successors(cur)
			if i == steps || len(succs) == 0 {
				break
			}
			cur = succs[rng.Intn(len(succs))]
		}
	}
	valsOf := func(a *assign.Assignment) map[string][]vocab.TermID {
		m := map[string][]vocab.TermID{}
		for _, name := range a.Vars() {
			m[name] = append([]vocab.TermID(nil), a.Values(name)...)
		}
		return m
	}
	for _, a := range reached {
		out = append(out, a)
		vars := a.Vars()
		if len(vars) == 0 {
			continue
		}
		// Specialize every value down a random path to a leaf: products
		// of unrelated leaves rarely generalize a valid assignment.
		m := valsOf(a)
		for name, vals := range m {
			for i, x := range vals {
				for kids := v.Children(s.Kinds()[name], x); len(kids) > 0; kids = v.Children(s.Kinds()[name], x) {
					x = kids[rng.Intn(len(kids))]
				}
				vals[i] = x
			}
		}
		out = append(out, assign.New(v, s.Kinds(), m, a.More()))
		// Replace one value by a random term of its namespace, which
		// often leaves the variable's cap region.
		name := vars[rng.Intn(len(vars))]
		m = valsOf(a)
		terms := v.ElementsTopo()
		if s.Kinds()[name] == vocab.Relation {
			terms = v.RelationsTopo()
		}
		m[name][0] = terms[rng.Intn(len(terms))]
		out = append(out, assign.New(v, s.Kinds(), m, a.More()))
		b := reached[rng.Intn(len(reached))]
		m = valsOf(a)
		m[name] = append(m[name], b.Values(name)...)
		out = append(out, assign.New(v, s.Kinds(), m, b.More()))
	}
	return out
}

// TestColumnTableMatchesOracles pins InClosure, IsValid and
// DropClassifiedValid, all evaluated on the valid column table, against the
// name-keyed reference scans on every node reached by random walks and on
// candidates built beside them.
func TestColumnTableMatchesOracles(t *testing.T) {
	for name, s := range oracleSpaces(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			cands := oracleCandidates(s, rng, 40, 6)
			var in, valid int
			for _, a := range cands {
				got, want := s.InClosure(a), oracleInClosure(s, a)
				if got != want {
					t.Fatalf("InClosure(%s) = %v, oracle %v", a.Key(), got, want)
				}
				if got {
					in++
				}
				got, want = s.IsValid(a), oracleIsValid(s, a)
				if got != want {
					t.Fatalf("IsValid(%s) = %v, oracle %v", a.Key(), got, want)
				}
				if got {
					valid++
				}
			}
			if in == 0 || in == len(cands) || valid == 0 || valid == len(cands) {
				t.Fatalf("candidates exercise one verdict only: %d in closure, %d valid of %d", in, valid, len(cands))
			}

			// Marks in both directions on a sample of the candidates, each
			// against the full valid set.
			all := make([]int32, len(s.Valid()))
			idx := make([]int32, len(s.Valid()))
			for j := range all {
				all[j] = int32(j)
			}
			partial := 0
			for n := 0; n < 150; n++ {
				a := cands[rng.Intn(len(cands))]
				for _, sig := range []bool{true, false} {
					copy(idx, all)
					kept := s.DropClassifiedValid(idx, a, sig)
					ref := oracleDropClassified(s, s.Valid(), a, sig)
					if len(kept) != len(ref) {
						t.Fatalf("mark %s (sig=%v): %d valid left unclassified, oracle %d", a.Key(), sig, len(kept), len(ref))
					}
					for i, j := range kept {
						if s.Valid()[j] != ref[i] {
							t.Fatalf("mark %s (sig=%v): kept Valid()[%d] = %s, oracle %s", a.Key(), sig, j, s.Valid()[j].Key(), ref[i].Key())
						}
					}
					if len(kept) > 0 && len(kept) < len(all) {
						partial++
					}
				}
			}
			if partial == 0 {
				t.Fatal("no sampled mark classified part of the valid set")
			}
		})
	}
}

// TestDropClassifiedValidForeignVariable: an assignment binding a variable
// the space does not mine lies below no valid assignment, and lies above
// exactly those valid assignments that bind nothing it lacks.
func TestDropClassifiedValidForeignVariable(t *testing.T) {
	s := randomSpace(t, 41).Space
	kinds := map[string]vocab.Kind{"zz": vocab.Element}
	for name, k := range s.Kinds() {
		kinds[name] = k
	}
	psi := s.Valid()[0]
	vals := map[string][]vocab.TermID{"zz": {psi.Values(psi.Vars()[0])[0]}}
	for _, name := range psi.Vars() {
		vals[name] = psi.Values(name)
	}
	a := assign.New(s.Vocabulary(), kinds, vals, nil)
	all := func() []int32 {
		idx := make([]int32, len(s.Valid()))
		for j := range idx {
			idx[j] = int32(j)
		}
		return idx
	}
	for _, sig := range []bool{true, false} {
		got := len(s.DropClassifiedValid(all(), a, sig))
		want := len(oracleDropClassified(s, s.Valid(), a, sig))
		if got != want {
			t.Fatalf("sig=%v: %d left, oracle %d", sig, got, want)
		}
	}
	if left := len(s.DropClassifiedValid(all(), a, false)); left != len(s.Valid()) {
		t.Fatalf("a foreign-variable mark classified %d valid assignments upward", len(s.Valid())-left)
	}
}
