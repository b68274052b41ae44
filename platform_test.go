package oassis_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"oassis"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// These suites pin the shared answer platform's tentpole invariant: a
// session attached to a shared store produces the SAME answers as a
// standalone run — byte-identical MSP sets and per-member transcripts —
// while the crowd is asked strictly fewer questions. The equivalence
// premise is the one the platform documents: members must answer as pure
// functions of question content (the synthetic oracle at PruneRatio 0),
// and sharing sessions must speak the same vocabulary.

// platformQuery parses a query over the DAG's vocabulary. rootName "" means
// the DAG's own full query; otherwise the item variable is rooted at the
// named taxonomy node, which yields a query overlapping the full one on
// exactly that subtree.
func platformQuery(t testing.TB, d *synth.DAG, rootName string, theta float64) *oassis.Query {
	t.Helper()
	root := "Stuff"
	if rootName != "" {
		root = rootName
	}
	text := fmt.Sprintf(
		"SELECT FACT-SETS WHERE $y subClassOf* %s. $p subClassOf* Somewhere SATISFYING $y doAt $p WITH SUPPORT = %.2f",
		root, theta)
	q, err := oassis.ParseQuery(text, d.Vocab)
	if err != nil {
		t.Fatalf("variant query (%s): %v", root, err)
	}
	return q
}

// platformCrowd builds n pure ground-truth members for the DAG.
func platformCrowd(d *synth.DAG, n int) []oassis.Member {
	members := make([]oassis.Member, n)
	for i := range members {
		members[i] = namedOracle{Member: d.Oracle(0, int64(i+1)), id: fmt.Sprintf("m%d", i)}
	}
	return members
}

// runLeg runs one query, optionally through a shared platform.
func runLeg(t testing.TB, d *synth.DAG, q *oassis.Query, n int, seed int64, quorum int, ratio float64, p *oassis.Platform) *oassis.Result {
	t.Helper()
	opts := []oassis.Option{
		oassis.WithSeed(seed),
		oassis.WithAggregator(oassis.NewMeanAggregator(quorum, q.Satisfying.Support)),
		oassis.WithSpecializationRatio(ratio),
		oassis.WithTranscript(),
	}
	if p != nil {
		opts = append(opts, oassis.WithPlatform(p))
	}
	sess, err := oassis.NewSession(d.Store, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(platformCrowd(d, n))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlatformDifferentialRandomized is the differential suite: across
// 100+ randomized seeds it builds a pair of queries with overlapping
// question keys (the full DAG query and a subtree-rooted variant — or the
// very same query, for total overlap), runs the pair standalone and
// through one shared platform, and requires identical MSP sets AND
// identical per-member transcripts for every query.
func TestPlatformDifferentialRandomized(t *testing.T) {
	const seeds = 104
	totalReused := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		d, err := synth.NewDAG(synth.DAGConfig{
			Width:      6 + rng.Intn(9), // 6..14
			Depth:      2 + rng.Intn(2), // 2..3
			MSPPercent: 0.10,
			Places:     2,
			Seed:       int64(seed*13 + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(3)      // 2..4 members
		quorum := 1 + rng.Intn(n) // 1..n
		ratio := float64(rng.Intn(3)) * 0.15
		runSeed := int64(seed*7 + 3)

		queries := []*oassis.Query{d.Query}
		if rng.Intn(2) == 0 {
			// Total overlap: the same query twice. The second shared run
			// must be answered entirely from the store.
			queries = append(queries, d.Query)
		} else {
			queries = append(queries, platformQuery(t, d, "n0_0", 0.5))
		}

		// Standalone reference legs: fresh sessions, fresh crowds, no
		// sharing of any kind.
		type fp struct {
			keys  string
			trans map[string][]string
		}
		want := make([]fp, len(queries))
		for i, q := range queries {
			res := runLeg(t, d, q, n, runSeed, quorum, ratio, nil)
			want[i].keys, want[i].trans = diffFingerprint(res)
		}

		// Shared legs: the same runs attached to one platform, in order,
		// so the second query hits whatever the first one asked.
		p := oassis.NewPlatform(oassis.PlatformConfig{})
		for i, q := range queries {
			res := runLeg(t, d, q, n, runSeed, quorum, ratio, p)
			keys, trans := diffFingerprint(res)
			if keys != want[i].keys {
				t.Fatalf("seed %d query %d: shared MSP set diverged:\n%s\nvs standalone\n%s",
					seed, i, keys, want[i].keys)
			}
			if !reflect.DeepEqual(trans, want[i].trans) {
				t.Fatalf("seed %d query %d: shared transcripts diverged:\n%v\nvs standalone\n%v",
					seed, i, trans, want[i].trans)
			}
		}
		st := p.Stats()
		if got := st.Hits + st.Misses + st.Joins; got == 0 {
			t.Fatalf("seed %d: platform never consulted", seed)
		}
		totalReused += st.Hits + st.Joins
	}
	// The suite must actually exercise sharing, not 104 cache-cold runs.
	if totalReused == 0 {
		t.Fatal("no question was ever reused across the differential seeds")
	}
	t.Logf("differential: %d seeds, %d crowd answers reused", seeds, totalReused)
}

// countingBroker records every question that actually reaches the crowd,
// keyed by (member, canonical question). It serializes forwards so the
// shared oracle members need no internal locking.
type countingBroker struct {
	mu     sync.Mutex
	counts map[string]int
	inner  oassis.Broker
}

func (c *countingBroker) Post(ask *oassis.Ask, deliver func(oassis.Reply)) {
	q, _ := crowd.QuestionKey(ask)
	c.mu.Lock()
	c.counts[ask.Member+"|"+q]++
	c.inner.Post(ask, deliver)
	c.mu.Unlock()
}

// TestPlatformConcurrentSessionsNoDuplicateAsks is the property test (run
// under -race in CI): N concurrent sessions mining the same query through
// one platform never cause any member to be asked the same question
// twice, the store's hit/miss/join counters exactly reconcile with the
// kernels' Stats.Asked, and every session's answers equal the standalone
// reference.
func TestPlatformConcurrentSessionsNoDuplicateAsks(t *testing.T) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 10, Depth: 2, MSPPercent: 0.12, Places: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const n, sessions = 3, 6
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}

	refRes := runLeg(t, d, d.Query, n, 11, 2, 0.15, nil)
	refKeys, refTrans := diffFingerprint(refRes)

	cb := &countingBroker{
		counts: make(map[string]int),
		inner:  crowd.NewMemberBroker(crowdMembers(platformCrowd(d, n)), time.Now),
	}
	p := oassis.NewPlatform(oassis.PlatformConfig{})

	var wg sync.WaitGroup
	results := make([]*oassis.Result, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		sess, err := oassis.NewSession(d.Store, d.Query,
			oassis.WithSeed(11),
			oassis.WithAggregator(oassis.NewMeanAggregator(2, d.Query.Satisfying.Support)),
			oassis.WithSpecializationRatio(0.15),
			oassis.WithTranscript(),
			oassis.WithPlatform(p),
		)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *oassis.Session) {
			defer wg.Done()
			results[i], errs[i] = sess.RunBroker(ids, cb)
		}(i, sess)
	}
	wg.Wait()

	asked := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		keys, trans := diffFingerprint(res)
		if keys != refKeys {
			t.Errorf("session %d: MSP set diverged from standalone:\n%s\nvs\n%s", i, keys, refKeys)
		}
		if !reflect.DeepEqual(trans, refTrans) {
			t.Errorf("session %d: transcripts diverged from standalone", i)
		}
		asked += res.Stats.Asked
	}

	// No member was asked the same question twice — across ALL sessions.
	for k, c := range cb.counts {
		if c != 1 {
			t.Errorf("question %q reached the crowd %d times", k, c)
		}
	}
	st := p.Stats()
	// Every kernel Ask resolved to exactly one store outcome.
	if asked != st.Hits+st.Misses+st.Joins {
		t.Errorf("sum(Stats.Asked) = %d but platform saw %d hits + %d misses + %d joins = %d",
			asked, st.Hits, st.Misses, st.Joins, st.Hits+st.Misses+st.Joins)
	}
	// Misses are exactly the distinct questions the crowd answered.
	if st.Misses != len(cb.counts) {
		t.Errorf("misses = %d but crowd answered %d distinct questions", st.Misses, len(cb.counts))
	}
	// Sharing must have actually happened: 6 identical sessions, 1 crowd pass.
	if st.Hits+st.Joins == 0 {
		t.Error("no cross-session reuse recorded")
	}
	if st.Sessions != 0 {
		t.Errorf("sessions gauge = %d after all detached", st.Sessions)
	}
}

// crowdMembers converts []oassis.Member to the broker's member slice (the
// aliases are identical types; this keeps the call sites readable).
func crowdMembers(ms []oassis.Member) []crowd.Member {
	out := make([]crowd.Member, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

// TestPlatformFreshnessTTL covers eviction/staleness semantics end to end:
// a rerun inside the TTL is answered wholly from the store, a rerun after
// the TTL re-asks the crowd, and every leg still matches the standalone
// answers.
func TestPlatformFreshnessTTL(t *testing.T) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 8, Depth: 2, MSPPercent: 0.12, Places: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	wantKeys, wantTrans := diffFingerprint(runLeg(t, d, d.Query, n, 3, 2, 0.15, nil))

	clock := oassis.NewVirtualClock()
	p := oassis.NewPlatform(oassis.PlatformConfig{TTL: time.Hour, Clock: clock})

	check := func(leg string) {
		t.Helper()
		keys, trans := diffFingerprint(runLeg(t, d, d.Query, n, 3, 2, 0.15, p))
		if keys != wantKeys || !reflect.DeepEqual(trans, wantTrans) {
			t.Fatalf("%s run diverged from standalone", leg)
		}
	}

	check("cold")
	cold := p.Stats()
	if cold.Misses == 0 {
		t.Fatal("cold run asked nothing")
	}

	clock.Advance(30 * time.Minute) // still fresh
	check("warm")
	warm := p.Stats()
	if warm.Misses != cold.Misses {
		t.Fatalf("fresh rerun re-asked the crowd: %d new misses", warm.Misses-cold.Misses)
	}
	if warm.Expired != 0 {
		t.Fatalf("fresh rerun expired %d entries", warm.Expired)
	}
	if warm.Hits <= cold.Hits {
		t.Fatal("fresh rerun recorded no hits")
	}

	clock.Advance(2 * time.Hour) // everything stale now
	check("stale")
	stale := p.Stats()
	if stale.Expired == 0 {
		t.Fatal("stale rerun expired nothing")
	}
	if stale.Misses <= warm.Misses {
		t.Fatal("stale rerun never re-asked the crowd")
	}
}

// TestPlatformThresholdReevaluation pins that cached supports are
// re-evaluated against each query's own threshold: after a θ=0.5 run
// fills the store, a θ=0.7 query over the same WHERE scope reuses the
// cached answers and still produces exactly the MSPs a from-scratch
// θ=0.7 run would.
func TestPlatformThresholdReevaluation(t *testing.T) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 10, Depth: 2, MSPPercent: 0.15, Places: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	qHigh := platformQuery(t, d, "", 0.7)

	wantKeys, wantTrans := diffFingerprint(runLeg(t, d, qHigh, n, 3, 2, 0.15, nil))

	p := oassis.NewPlatform(oassis.PlatformConfig{})
	runLeg(t, d, d.Query, n, 3, 2, 0.15, p) // θ=0.5 fills the store
	filled := p.Stats()

	keys, trans := diffFingerprint(runLeg(t, d, qHigh, n, 3, 2, 0.15, p))
	if keys != wantKeys || !reflect.DeepEqual(trans, wantTrans) {
		t.Fatalf("shared θ=0.7 run diverged from standalone θ=0.7:\n%s\nvs\n%s", keys, wantKeys)
	}
	st := p.Stats()
	if st.Hits <= filled.Hits {
		t.Fatal("θ=0.7 run reused no θ=0.5 answers")
	}
}

// BenchmarkPlatformDedup measures the tentpole's economy: two tenants each
// run an overlapping query pair (the full DAG query and a subtree-rooted
// variant). Standalone, the crowd answers every question of all four runs;
// on a shared platform only the distinct questions reach the crowd. The
// "x-fewer-questions" metric is crowd questions standalone / shared and
// must exceed 2 (recorded in BENCH_PR6.json).
func BenchmarkPlatformDedup(b *testing.B) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 14, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	const n, tenants = 3, 2
	queries := []*oassis.Query{d.Query, platformQuery(b, d, "n0_0", 0.5)}

	var standalone, shared int
	for i := 0; i < b.N; i++ {
		standalone, shared = 0, 0
		for tn := 0; tn < tenants; tn++ {
			for _, q := range queries {
				res := runLeg(b, d, q, n, 3, 2, 0.15, nil)
				standalone += res.Stats.Asked
			}
		}
		p := oassis.NewPlatform(oassis.PlatformConfig{})
		for tn := 0; tn < tenants; tn++ {
			for _, q := range queries {
				runLeg(b, d, q, n, 3, 2, 0.15, p)
			}
		}
		shared = p.Stats().Misses
	}
	if shared == 0 {
		b.Fatal("shared legs asked nothing")
	}
	ratio := float64(standalone) / float64(shared)
	b.ReportMetric(float64(standalone), "questions-standalone")
	b.ReportMetric(float64(shared), "questions-shared")
	b.ReportMetric(ratio, "x-fewer-questions")
	if ratio < 2 {
		b.Fatalf("dedup ratio %.2f < 2x", ratio)
	}
}
