package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/synth"
)

// fleetReport is the JSON document `-fleet` emits: N-Triples ingest
// throughput over the generated document and the query-fleet results over
// the loaded store.
type fleetReport struct {
	Scale     string                  `json:"scale"`
	CPUs      int                     `json:"cpus"`
	Triples   int                     `json:"triples"`
	Bytes     int                     `json:"bytes"`
	GenSecs   float64                 `json:"generate_secs"`
	LoadSecs  float64                 `json:"load_secs"`
	LoadTPS   float64                 `json:"triples_per_sec"`
	Stats     *ontology.NTriplesStats `json:"ingest_stats"`
	Elements  int                     `json:"vocab_elements"`
	Relations int                     `json:"vocab_relations"`
	Facts     int                     `json:"store_facts"`
	Fleet     *synth.FleetReport      `json:"fleet"`
}

// runFleetBench generates the scale ontology, times its ingestion, runs
// the query fleet against the loaded store and writes the JSON report.
func runFleetBench(scaleName string, queries, execs, workers, mine int, seed int64, out string, o *obs.Observer) error {
	var scale synth.ScaleConfig
	switch scaleName {
	case "million":
		scale = synth.MillionScale()
	case "smoke":
		scale = synth.SmokeScale()
	default:
		return fmt.Errorf("unknown -fleet-scale %q (million or smoke)", scaleName)
	}
	scale.Seed = seed

	fmt.Printf("==== fleet (%s scale) ====\n", scaleName)
	var buf bytes.Buffer
	buf.Grow(scale.TripleCount() * 96)
	t0 := time.Now()
	if err := synth.WriteScaleNTriples(&buf, scale); err != nil {
		return err
	}
	genSecs := time.Since(t0).Seconds()
	fmt.Printf("generated %d triples (%.1f MiB) in %.2fs\n",
		scale.TripleCount(), float64(buf.Len())/(1<<20), genSecs)

	t1 := time.Now()
	v, store, stats, err := ontology.LoadNTriples(bytes.NewReader(buf.Bytes()), ontology.LoadOptions{Obs: o})
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	loadSecs := time.Since(t1).Seconds()
	fmt.Printf("load: %.2fs (%.0f triples/s, %d cpus)\n",
		loadSecs, float64(stats.Triples)/loadSecs, runtime.GOMAXPROCS(0))

	fcfg := synth.FleetConfig{Queries: queries, Executions: execs, Workers: workers,
		MineMembers: mine, Seed: seed, Obs: o}
	fleet := synth.SampleFleet(scale, fcfg)
	rep, err := synth.RunFleet(store, fleet, fcfg)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d distinct queries, %d executions on %d workers in %.2fs (%.0f q/s)\n",
		rep.DistinctQueries, rep.Executions, rep.Workers, rep.Seconds, rep.QueriesPerSec)
	fmt.Printf("plan cache: %d hits / %d misses (%.1f%% hit rate), %d entries\n",
		rep.PlanCacheHits, rep.PlanCacheMisses, 100*rep.CacheHitRate, rep.PlanCacheSize)
	if rep.Questions > 0 {
		fmt.Printf("mining: %d crowd questions across the fleet (%d synthetic members per run)\n",
			rep.Questions, mine)
	}
	if len(rep.PerQuery) > 0 {
		top := append([]synth.QueryCost(nil), rep.PerQuery...)
		sort.Slice(top, func(i, j int) bool { return top[i].WallSecs > top[j].WallSecs })
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Printf("attribution: %d queries journaled; top by wall time:\n", len(rep.PerQuery))
		for _, c := range top {
			fmt.Printf("  %s: %d execs, %.3fs, %d cache hits, %d rows, %d questions\n",
				c.Query, c.Execs, c.WallSecs, c.CacheHits, c.Rows, c.Questions)
		}
	}

	doc := fleetReport{
		Scale:     scaleName,
		CPUs:      runtime.GOMAXPROCS(0),
		Triples:   stats.Triples,
		Bytes:     buf.Len(),
		GenSecs:   genSecs,
		LoadSecs:  loadSecs,
		LoadTPS:   float64(stats.Triples) / loadSecs,
		Stats:     stats,
		Elements:  v.NumElements(),
		Relations: v.NumRelations(),
		Facts:     store.Size(),
		Fleet:     rep,
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", out)
	}
	return nil
}
