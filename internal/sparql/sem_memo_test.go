package sparql_test

// Semantic-mode plans memoize each bound-side match list once per run (a
// variable bound by an earlier pattern repeats its value across outer rows).
// These tests pin the memoized Stream to the unmemoized matching loop on
// multi-pattern stars over the large stores of sem_index_test.go: the same
// rows, in the same order, with and without an early stop.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// semStarCases builds 2–4-pattern stars whose later patterns run with a
// variable bound by an earlier one, so the same bound shape recurs across
// outer rows; plus a free predicate, a wildcard and a `$x r $x` pattern.
func semStarCases(rng *rand.Rand, elems, rels []vocab.TermID) []sparql.BGP {
	c := func() sparql.Term { return sparql.ConstTerm(elems[rng.Intn(len(elems))]) }
	ra, rb := sparql.ConstTerm(rels[0]), sparql.ConstTerm(rels[1])
	x, y, z, p := sparql.VarTerm("x"), sparql.VarTerm("y"), sparql.VarTerm("z"), sparql.VarTerm("p")
	return []sparql.BGP{
		// Bound subject repeats: $x from the anchor drives the second pattern.
		{{S: x, P: ra, O: c()}, {S: x, P: rb, O: y}},
		// Three-pattern star on $x.
		{{S: x, P: rb, O: c()}, {S: x, P: ra, O: y}, {S: x, P: rb, O: z}},
		// Four patterns: a star on $x, then a chain through $y.
		{{S: x, P: ra, O: c()}, {S: x, P: rb, O: c()}, {S: x, P: ra, O: y}, {S: y, P: rb, O: c()}},
		// Bound object repeats.
		{{S: c(), P: ra, O: x}, {S: y, P: rb, O: x}},
		// Both sides bound by earlier patterns.
		{{S: x, P: ra, O: c()}, {S: y, P: rb, O: c()}, {S: x, P: ra, O: y}},
		// Free predicate on the bound side.
		{{S: x, P: rb, O: c()}, {S: x, P: p, O: y}},
		// Wildcard subject against a bound object.
		{{S: x, P: ra, O: c()}, {S: sparql.WildcardTerm(), P: rb, O: x}},
		// `$x r $x` once $x is bound.
		{{S: x, P: ra, O: c()}, {S: x, P: rb, O: x}},
	}
}

// semStarStores yields the stores and cases the tests below run over.
func semStarStores(t *testing.T, seeds int, fn func(seed int64, ci int, pl *sparql.Plan)) {
	t.Helper()
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		s, elems, rels := largeSemStore(rng)
		for ci, bgp := range semStarCases(rng, elems, rels) {
			e := sparql.NewEvaluator(s)
			e.Semantic = true
			pl, err := e.Compile(bgp)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, ci, err)
			}
			fn(seed, ci, pl)
		}
	}
}

// streamRows flattens the rows a stream function yields, stopping after
// limit rows when limit > 0.
func streamRows(run func(func([]vocab.TermID) bool) int, limit int) ([]vocab.TermID, int) {
	var flat []vocab.TermID
	rows := 0
	n := run(func(row []vocab.TermID) bool {
		flat = append(flat, row...)
		rows++
		return limit <= 0 || rows < limit
	})
	return flat, n
}

func TestSemanticMemoMatchesUnmemoized(t *testing.T) {
	semStarStores(t, 12, func(seed int64, ci int, pl *sparql.Plan) {
		for _, limit := range []int{0, 37} {
			got, gn := streamRows(pl.Stream, limit)
			want, wn := streamRows(pl.StreamUnmemoized, limit)
			if gn != wn || len(got) != len(want) {
				t.Fatalf("seed %d case %d limit %d: Stream yielded %d rows, unmemoized %d\n%s",
					seed, ci, limit, gn, wn, pl.Explain())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d case %d limit %d: rows diverge at value %d (row %d)\n%s",
						seed, ci, limit, i, i/len(pl.Vars()), pl.Explain())
				}
			}
		}
	})
}

// TestSemanticStarEmissionOrder pins the exact row sequence Stream emits on
// the multi-pattern stars above, the shapes the match memo serves from its
// second operator on. The digest was recorded from the unmemoized matcher,
// so it proves the memo left the emission order (and with it assign's
// NodeIDs) unchanged; change it only with a deliberate change of order.
func TestSemanticStarEmissionOrder(t *testing.T) {
	const (
		wantRows   = 1623794
		wantDigest = "eb2622758da1f1e498c09f2ab4db3466862259b9faba31d7b584857d08319542"
	)
	h := sha256.New()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	rows := 0
	semStarStores(t, 25, func(seed int64, ci int, pl *sparql.Plan) {
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
	})
	got := hex.EncodeToString(h.Sum(nil))
	if rows != wantRows || got != wantDigest {
		t.Fatalf("semantic star Stream emitted %d rows with digest %s, want %d rows with digest %s",
			rows, got, wantRows, wantDigest)
	}
}
