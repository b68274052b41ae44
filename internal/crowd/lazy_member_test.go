package crowd_test

import (
	"math/rand"
	"reflect"
	"testing"

	"oassis/internal/crowd"
	"oassis/internal/ontology"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// eagerMember is SimMember as it was before its pruning state went lazy:
// the generator is seeded and the relevant-element closure built at
// construction. It is the oracle TestLazySimMemberMatchesEager replays the
// lazy member against.
type eagerMember struct {
	v          *vocab.Vocabulary
	db         []ontology.FactSet
	pruneRatio float64
	rng        *rand.Rand
	relevantE  map[vocab.TermID]bool
}

func newEagerMember(v *vocab.Vocabulary, db []ontology.FactSet, seed int64, pruneRatio float64) *eagerMember {
	m := &eagerMember{v: v, db: db, pruneRatio: pruneRatio,
		rng: rand.New(rand.NewSource(seed)), relevantE: map[vocab.TermID]bool{}}
	var mark func(e vocab.TermID)
	mark = func(e vocab.TermID) {
		if e == ontology.Any || m.relevantE[e] {
			return
		}
		m.relevantE[e] = true
		for _, p := range v.ElementParents(e) {
			mark(p)
		}
	}
	for _, t := range db {
		for _, f := range t {
			mark(f.S)
			mark(f.O)
		}
	}
	return m
}

func (m *eagerMember) askConcrete(fs ontology.FactSet) crowd.Response {
	s := ontology.Support(m.v, m.db, fs)
	resp := crowd.Response{Support: crowd.BucketSupport(s, crowd.UIScale)}
	if s == 0 && m.pruneRatio > 0 && m.rng.Float64() < m.pruneRatio {
		for _, f := range fs {
			for _, e := range []vocab.TermID{f.S, f.O} {
				if e != ontology.Any && !m.relevantE[e] {
					resp.Pruned = []vocab.TermID{e}
					return resp
				}
			}
		}
	}
	return resp
}

// TestLazySimMemberMatchesEager replays the same question stream against a
// lazily initialized SimMember and the eager oracle, over several domain
// seeds and pruning ratios, and requires every Response to match: the lazy
// member draws the same pruning stream and clicks the same terms.
func TestLazySimMemberMatchesEager(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		d, err := synth.NewDomain(synth.Travel(6, seed))
		if err != nil {
			t.Fatal(err)
		}
		v := d.Vocab
		elems, rels := v.ElementsTopo(), v.RelationsTopo()
		for _, ratio := range []float64{0, 0.13, 0.25, 1} {
			clicks := 0
			for mi, member := range d.Members {
				db := member.(*crowd.SimMember).DB()
				memberSeed := seed*1000 + int64(mi)
				lazy := crowd.NewSimMember("m", v, db, memberSeed)
				lazy.PruneRatio = ratio
				eager := newEagerMember(v, db, memberSeed, ratio)
				rng := rand.New(rand.NewSource(memberSeed))
				for q := 0; q < 300; q++ {
					// Half the questions reuse a stored fact, so some have
					// support and skip the pruning draw.
					var fs ontology.FactSet
					for k := 0; k <= rng.Intn(2); k++ {
						if tx := db[rng.Intn(len(db))]; rng.Intn(2) == 0 && len(tx) > 0 {
							fs = append(fs, tx[rng.Intn(len(tx))])
						} else {
							fs = append(fs, ontology.Fact{
								S: elems[rng.Intn(len(elems))],
								P: rels[rng.Intn(len(rels))],
								O: elems[rng.Intn(len(elems))],
							})
						}
					}
					fs = ontology.NewFactSet(fs...)
					got, want := lazy.AskConcrete(fs), eager.askConcrete(fs)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d ratio %v member %d question %d %v: lazy %+v, eager %+v",
							seed, ratio, mi, q, fs, got, want)
					}
					if len(got.Pruned) > 0 {
						clicks++
					}
				}
			}
			if (ratio > 0) != (clicks > 0) {
				t.Fatalf("seed %d ratio %v: %d pruning clicks", seed, ratio, clicks)
			}
		}
	}
}
