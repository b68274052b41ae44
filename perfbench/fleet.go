package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"oassis"
	"oassis/internal/assign"
	"oassis/internal/sparql"
	"oassis/internal/synth"
)

// fleet-where: closed loop, one client, over the million-fact
// ontology of synth.WriteScaleNTriples loaded with oassis.LoadNTriples. One
// op is parse + WHERE compile through the store's shared plan cache +
// assign.NewSpaceFromPlan for one query of a synth.SampleFleet catalogue.
// The kernel does no work here.
//
// The ontology and the catalogue are fixed (scale seed and catalogue seed
// 1); the workload seed shuffles the execution order. A semantic star's
// cost grows with the class subtree it anchors on, over four orders of
// magnitude, so a catalogue drawn per seed moves the whole run with the
// few queries it happens to contain.
//
// With two clients the sub-0.1 ms ops that make up the median ran beside a
// heavy semantic space build on the other core most of the time, and
// op_p50_ms of identical work moved by up to a third between runs; one
// client holds it within a few percent.

const (
	// fleetQueries is the catalogue size: a third semantic, as SampleFleet
	// draws them.
	fleetQueries = 150
	// fleetPass is the length of one execution pass. Each catalogue query
	// runs max(1, round(fleetPass·p)) times per pass, p its Zipf(1.2)
	// popularity by catalogue rank, so every pass repeats the head (plan
	// cache hits) and compiles nothing new after the first.
	fleetPass = 400
	// fleetZipfS is the popularity skew RunFleet uses.
	fleetZipfS = 1.2
	// fleetPassTime is the nominal length of one pass on a 2-CPU box. A
	// run executes a fixed number of whole passes, --seconds divided by
	// this, so every run does the same work and a faster program finishes
	// sooner; stopping on the clock instead would let noise decide whether
	// a heavy query's pass is in or out.
	fleetPassTime = 8 * time.Second
)

// fleetInput is the generated fleet: N-Triples text and the catalogue.
type fleetInput struct {
	ntriples []byte
	queries  []synth.FleetQuery
	pass     []int // catalogue index of each execution in one pass
}

func generateFleet() (*fleetInput, error) {
	scale := synth.MillionScale()
	var buf bytes.Buffer
	buf.Grow(scale.TripleCount() * 100)
	if err := synth.WriteScaleNTriples(&buf, scale); err != nil {
		return nil, err
	}
	in := &fleetInput{
		ntriples: buf.Bytes(),
		queries:  synth.SampleFleet(scale, synth.FleetConfig{Queries: fleetQueries, Seed: scale.Seed}),
	}
	in.pass = zipfPass(len(in.queries), fleetPass, fleetZipfS)
	return in, nil
}

// zipfPass lists catalogue indexes so that rank r appears
// max(1, round(n·p(r))) times, p(r) ∝ 1/(r+1)^s.
func zipfPass(queries, n int, s float64) []int {
	var norm float64
	for r := 0; r < queries; r++ {
		norm += math.Pow(float64(r+1), -s)
	}
	var out []int
	for r := 0; r < queries; r++ {
		k := int(math.Round(float64(n) * math.Pow(float64(r+1), -s) / norm))
		for i := 0; i < max(k, 1); i++ {
			out = append(out, r)
		}
	}
	return out
}

// planCacheStats reads the store's shared plan cache counters.
func planCacheStats(store *oassis.Ontology) (hits, misses, entries int64) {
	return sparql.SharedPlanCache(store).Stats()
}

// fleetShape is what every execution of one catalogue query must repeat.
type fleetShape struct{ rows, valid int }

// fleetPhase is what one measured phase of fleet-where collected.
type fleetPhase struct {
	lat, parse, compile, sb   []float64
	rows, valid, nodes, execs int
	wall                      time.Duration
}

func runFleetWhere(opt options) (*outcome, error) {
	out := newOutcome()
	genStart := time.Now()
	in, err := generateFleet()
	if err != nil {
		return nil, err
	}
	out.set("bench.generate_s", time.Since(genStart).Seconds(), 1)

	var setups []float64
	var v *oassis.Vocabulary
	var store *oassis.Ontology
	var triples int
	load := func() error {
		v, store = nil, nil
		runtime.GC()
		t0 := time.Now()
		var st *oassis.NTriplesStats
		var err error
		if v, store, st, err = oassis.LoadNTriples(bytes.NewReader(in.ntriples)); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		triples = st.Triples
		return nil
	}
	for rep := 0; rep < fleetSetups; rep++ {
		if err := load(); err != nil {
			return nil, err
		}
	}
	out.set("setup_s", median(setups), len(setups))
	out.set("ontology.load_s", median(setups), len(setups))
	out.set("ontology.triples_per_s", float64(triples)/median(setups), len(setups))

	want := make(map[int]fleetShape)
	opID, passNo := int64(0), int64(0)

	exec := func(p *fleetPhase, rec *recorder, qi int) {
		fq := in.queries[qi]
		out.attempted++
		opID++
		tr := rec.begin(opID, fmt.Sprintf("q%03d", qi))
		t0 := time.Now()
		sp := tr.start("oassisql.parse", 0)
		q, err := oassis.ParseQuery(fq.Text, v)
		tr.stop(sp)
		t1 := time.Now()
		if err != nil {
			out.failed++
			out.note("query %d: parse: %v", qi, err)
			return
		}
		sp = tr.start("sparql.compile", 0)
		ev := sparql.NewEvaluator(store)
		ev.Semantic = fq.Semantic
		ev.UseSharedCache()
		plan, err := ev.Compile(q.Where)
		tr.stop(sp)
		t2 := time.Now()
		if err != nil {
			out.failed++
			out.note("query %d: compile: %v", qi, err)
			return
		}
		sp = tr.start("assign.space_build", 0)
		space, rows, err := assign.NewSpaceFromPlan(q, plan, nil)
		tr.stop(sp)
		t3 := time.Now()
		tr.finish()
		if err != nil {
			out.failed++
			out.note("query %d: space: %v", qi, err)
			return
		}
		// Correctness: every execution of a query streams the same rows
		// and finds the same valid assignments.
		got := fleetShape{rows: rows, valid: len(space.Valid())}
		w, seen := want[qi]
		if !seen {
			want[qi] = got
		}
		if seen && w != got {
			out.failed++
			out.note("query %d: %+v, first execution %+v", qi, got, w)
			return
		}
		p.lat = append(p.lat, ms(t3.Sub(t0)))
		p.parse = append(p.parse, us(t1.Sub(t0)))
		p.compile = append(p.compile, us(t2.Sub(t1)))
		p.sb = append(p.sb, ms(t3.Sub(t2)))
		p.rows += rows
		p.valid += got.valid
		p.nodes += space.NumNodes()
		p.execs++
	}

	// measure runs whole passes, as many as d holds at the nominal pass
	// time, so every phase executes each query its share of the time.
	measure := func(d time.Duration, rec *recorder) *fleetPhase {
		p := &fleetPhase{}
		start := time.Now()
		for n := 0; n < max(1, int((d+fleetPassTime/2)/fleetPassTime)) || p.execs < minOps; n++ {
			passNo++
			pass := append([]int(nil), in.pass...)
			rng := rand.New(rand.NewSource(opt.seed*1_000_003 + passNo))
			rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
			for _, qi := range pass {
				exec(p, rec, qi)
			}
		}
		p.wall = time.Since(start)
		return p
	}

	if !opt.trace {
		in.ntriples = nil // benchmark-side input, not part of heap_mb
	}
	h0, m0, _ := planCacheStats(store)
	untraced, traced := opt.phases()
	pu := measure(untraced, nil)
	out.set("heap_mb", heapMB(), 1)
	out.opFigures(pu.lat, len(pu.lat), pu.wall)
	p := pu
	if opt.trace {
		// The traced phase starts from a freshly loaded store too, so its
		// first pass compiles every plan and builds every index again.
		if err := load(); err != nil {
			return nil, err
		}
		h0, m0, _ = planCacheStats(store)
		rec := newRecorder()
		p = measure(traced, rec)
		out.traceFigures(rec, pu.lat, p.lat)
	}
	h1, m1, entries := planCacheStats(store)
	out.pct("oassisql.parse_us_p50", p.parse, 0.5)
	out.pct("sparql.compile_us_p50", p.compile, 0.5)
	out.share("sparql.plan_cache_hit_ratio", ratio{Num: float64(h1 - h0), Base: float64(h1 - h0 + m1 - m0)}, 1)
	out.set("sparql.plan_cache_entries", float64(entries), 1)
	out.pct("assign.space_build_ms_p50", p.sb, 0.5)
	out.pct("assign.space_build_ms_p90", p.sb, 0.9)
	out.share("assign.rows_per_valid", ratio{Num: float64(p.rows), Base: float64(p.valid)}, 1)
	out.share("assign.space_nodes_per_op", ratio{Num: float64(p.nodes), Base: float64(p.execs)}, 1)
	runtime.KeepAlive(store)
	return out, nil
}
