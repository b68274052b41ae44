package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileGuard(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		refuse bool
	}{
		{100, 0.9, 90, false}, // ranks 91..100 lie beyond: exactly ten
		{99, 0.9, 0, true},    // nine beyond
		{20, 0.5, 10, false},  // ranks 11..20 beyond
		{19, 0.5, 0, true},
		{1000, 0.9, 900, false},
		{0, 0.5, 0, true},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.refuse {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*c.q, c.n, got, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestRatioBase(t *testing.T) {
	if v, ok := (ratio{Num: 3, Base: 4}).value(); !ok || v != 0.75 {
		t.Errorf("3/4 = %v, %v", v, ok)
	}
	if v, ok := (ratio{Num: 0, Base: 0}).value(); ok || v != 0 {
		t.Errorf("0/0 = %v, %v; want refused", v, ok)
	}
	o := newOutcome()
	o.share("x", ratio{Num: 1, Base: 0}, 100)
	if _, set := o.metrics["x"]; set || len(o.notes) != 1 {
		t.Errorf("empty base reported: %v, notes %v", o.metrics, o.notes)
	}
	o.share("y", ratio{Num: 1, Base: 8}, 100)
	if o.metrics["y"] != 12.5 || o.samples["y"] != 8 {
		t.Errorf("share = %v with %d samples, want 12.5 with 8", o.metrics["y"], o.samples["y"])
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Layer: "bench.op", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Layer: "a", Start: 10, End: 40},
		{Op: 1, ID: 2, Parent: 0, Layer: "b", Start: 30, End: 60},  // overlaps a
		{Op: 1, ID: 3, Parent: 0, Layer: "c", Start: 90, End: 120}, // runs past the parent
		{Op: 1, ID: 4, Parent: 2, Layer: "d", Start: 35, End: 45},
		{Op: 1, ID: 5, Parent: 1, Layer: "crowd", Start: 12, End: 38, Calls: 3, Busy: 9},
		// A second op reusing span IDs must not mix with the first.
		{Op: 2, ID: 0, Parent: -1, Layer: "bench.op", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench.op": (100 - 60) + 10, // covered [10,60) and [90,100); op 2 has no children
		"a":        30 - 9,
		"b":        30 - 10,
		"c":        30,
		"d":        10,
		"crowd":    9,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self[%s] = %d, want %d", k, got[k], w)
		}
	}
	if w := opWall(spans); w != 110 {
		t.Errorf("op wall = %d, want 110", w)
	}
}

func TestRecorderReconciles(t *testing.T) {
	rec := newRecorder()
	tr := rec.begin(7, "k")
	a := tr.start("a", 0)
	time.Sleep(2 * time.Millisecond)
	tr.stop(a)
	tr.finish()
	var nilRec *recorder
	nt := nilRec.begin(1, "k") // untraced runs call through a nil recorder
	nt.stop(nt.start("a", 0))
	nt.finish()
	spans := rec.all()
	if len(spans) != 2 || spans[1].Op != 7 || spans[1].Parent != 0 {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if sum := self["bench.op"] + self["a"]; sum != opWall(spans) {
		t.Errorf("self times sum to %v, op wall %v", sum, opWall(spans))
	}
}

func TestZipfPass(t *testing.T) {
	pass := zipfPass(150, 400, 1.2)
	counts := make([]int, 150)
	for _, r := range pass {
		counts[r]++
	}
	for r, c := range counts {
		if c < 1 {
			t.Fatalf("rank %d never runs", r)
		}
		if r > 0 && c > counts[r-1] {
			t.Fatalf("rank %d runs %d times, more than rank %d (%d)", r, c, r-1, counts[r-1])
		}
	}
	if math.Abs(float64(len(pass))-400) > 150 {
		t.Errorf("pass length %d far from 400", len(pass))
	}
}

func TestReRecordOnEnvironmentChange(t *testing.T) {
	env := envBlock{CPUs: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "c", Workload: "w", Seed: 1}
	a := &report{Env: env, Metrics: map[string]reportMetric{"m": {Value: 1}}}
	b := &report{Env: env, Metrics: map[string]reportMetric{"m": {Value: 2}}}
	if _, err := sideBySide(a, b); err != nil {
		t.Fatalf("same environment refused: %v", err)
	}
	b.Env.CPUs = 4
	if _, err := sideBySide(a, b); err == nil {
		t.Fatal("different CPU counts compared without re-record")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var def struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
