// Command perfbench is the repository's benchmark. It generates a seeded
// workload, hands it to the system only as generated inputs (ontology and
// crowd text, N-Triples, OASSIS-QL), drives the system through its public
// functions, checks every op's output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload domain-mine --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half and the result carries
// the per-layer metrics, computed from op-scoped spans the benchmark records
// around its calls into each layer (written to .bench_build/perfbench as
// JSONL). Every run also writes a report file stamped with an environment
// block; `perfbench -compare a.json b.json` sets two reports side by side and
// refuses, with "re-record", when their environment blocks differ.
//
// README.md in this directory describes the workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// outDir holds reports and span files, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// How many times a run sets its workload up; setup_s is the median, so one
// slow set-up does not move the figure. Cheap set-ups repeat more often.
const (
	domainSetups = 7
	fleetSetups  = 3
	serveSetups  = 15
)

// metricDef names one reported metric and its unit; the two lists mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"questions_per_s", "1/s"},
	{"questions_per_op", "count"},
	{"first_msp_p50_ms", "ms"},
	{"failed_frac", "ratio"},
	{"ontology.load_s", "s"},
	{"ontology.triples_per_s", "1/s"},
	{"oassisql.parse_us_p50", "us"},
	{"sparql.compile_us_p50", "us"},
	{"sparql.plan_cache_hit_ratio", "ratio"},
	{"sparql.plan_cache_entries", "count"},
	{"assign.space_build_ms_p50", "ms"},
	{"assign.space_build_ms_p90", "ms"},
	{"assign.rows_per_valid", "ratio"},
	{"assign.space_nodes_per_op", "count"},
	{"oassis.new_session_ms_p50", "ms"},
	{"core.kernel_self_ms_p50", "ms"},
	{"core.kernel_us_per_question", "us"},
	{"core.rounds_per_op", "count"},
	{"crowd.member_us_per_answer", "us"},
	{"crowd.member_share", "ratio"},
	{"platform.hit_ratio", "ratio"},
	{"platform.evicted_per_op", "count"},
	{"platform.entries", "count"},
	{"server.question_ms_p50", "ms"},
	{"server.poll_hit_ratio", "ratio"},
	{"server.run_ms_p50", "ms"},
	{"obs.journal_events_per_op", "count"},
	{"bench.unattributed_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.generate_s", "s"},
}

// options are one run's command-line settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run measured. Metrics missing from the map
// do not apply to the workload and are reported as 0 (see README.md).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int
	rec               *recorder

	mu    sync.Mutex // guards notes, which concurrent workers add to
	notes []string
}

// maxNotes caps the notes a run keeps, so a run whose every op fails
// still prints a readable report.
const maxNotes = 50

// note records one observation for the report: a failed check, a refused
// percentile, an empty ratio base.
func (o *outcome) note(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.notes) < maxNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), samples: make(map[string]int)}
}

// set records a metric with the number of samples behind it.
func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	o.samples[name] = n
}

// pct records a guarded percentile; a refused one is left out with a note.
func (o *outcome) pct(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		o.note("%s: %v", name, err)
		return
	}
	o.set(name, v, len(xs))
}

// share records a ratio; an empty base is left out with a note.
func (o *outcome) share(name string, r ratio, scale float64) {
	v, ok := r.value()
	if !ok {
		o.note("%s: empty base", name)
		return
	}
	o.set(name, scale*v, int(r.Base))
}

var workloads = map[string]func(options) (*outcome, error){
	"domain-mine": runDomainMine,
	"fleet-where": runFleetWhere,
	"serve-http":  runServeHTTP,
}

func main() {
	var (
		workload = flag.String("workload", "", "domain-mine | fleet-where | serve-http")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		compare  = flag.Bool("compare", false, "set two report files (the arguments) side by side")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareReports(flag.Args()))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload domain-mine|fleet-where|serve-http, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := environment(*workload, *seed)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	refBefore := refLoopMS()
	out, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		out.set("failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), out.attempted)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-s%d.jsonl", *workload, *seed))
		if err := out.rec.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	rep := report{Env: env, Trace: opt.trace, Seconds: *seconds, RefLoopMS: [2]float64{refBefore, refLoopMS()},
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]reportMetric), Notes: out.notes}
	line := resultLine{Correct: rep.Correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]lineMetric)}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			rep.Notes = append(rep.Notes, d.name+": no value on this workload, reported as 0")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: non-finite value %v, reported as 0", d.name, v))
			v = 0
		}
		rep.Metrics[d.name] = reportMetric{Value: v, Unit: d.unit, Samples: out.samples[d.name]}
		line.Metrics[d.name] = lineMetric{Value: v, Unit: d.unit}
	}
	for _, n := range rep.Notes {
		fmt.Println("note:", n)
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-s%d-t%d.json", *workload, *seed, *trace))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
		os.Exit(1)
	}
	fmt.Printf("report %s\n", path)
	last, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type reportMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is the full record of one run, stamped with its environment.
type report struct {
	Env       envBlock                `json:"env"`
	Trace     bool                    `json:"trace"`
	Seconds   int                     `json:"seconds"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
	Notes     []string                `json:"notes,omitempty"`
	// RefLoopMS times a fixed CPU loop before and after the run. It does
	// not enter any metric; it shows how fast the box ran, so a run on a
	// box that slowed down can be told from a slower program.
	RefLoopMS [2]float64 `json:"ref_loop_ms"`
}

// envBlock names what a figure was measured on. Figures from different
// blocks are not comparable.
type envBlock struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func environment(workload string, seed int64) envBlock {
	return envBlock{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf("."),
		Workload:   workload,
		Seed:       seed,
	}
}

// commitOf names the source the benchmark runs against: the git commit when
// root is a git checkout, otherwise a hash of its Go sources and module
// files (an exported tree has no commit to read).
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if c, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(c))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// errReRecord is returned when two reports were measured on different
// environments.
var errReRecord = errors.New("re-record")

// sideBySide renders two reports metric by metric, refusing reports whose
// environment blocks differ.
func sideBySide(a, b *report) (string, error) {
	if a.Env != b.Env {
		return "", fmt.Errorf("%w: environment blocks differ:\n  %+v\n  %+v", errReRecord, a.Env, b.Env)
	}
	if a.Trace != b.Trace || a.Seconds != b.Seconds {
		return "", fmt.Errorf("%w: run settings differ (trace %v/%v, seconds %d/%d)",
			errReRecord, a.Trace, b.Trace, a.Seconds, b.Seconds)
	}
	var names []string
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-30s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		rel := "-"
		if ma.Value != 0 {
			rel = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Fprintf(&sb, "%-30s %14.6g %14.6g %8s %s\n", n, ma.Value, mb.Value, rel, ma.Unit)
	}
	return sb.String(), nil
}

func compareReports(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two report files")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	table, err := sideBySide(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 3
	}
	fmt.Print(table)
	return 0
}

// refLoopMS is the median of five timings of a fixed hashing loop.
func refLoopMS() float64 {
	buf := make([]byte, 1<<20)
	xs := make([]float64, 5)
	for i := range xs {
		t0 := time.Now()
		for j := 0; j < 8; j++ {
			sum := sha256.Sum256(buf)
			buf[j] = sum[0]
		}
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// opFigures fills the latency and throughput metrics from one measured
// phase's op latencies (ms) and the ops completed in its wall time.
func (o *outcome) opFigures(lat []float64, ops int, wall time.Duration) {
	o.pct("op_p50_ms", lat, 0.5)
	o.pct("op_p90_ms", lat, 0.9)
	o.set("ops_per_s", float64(ops)/wall.Seconds(), ops)
}

// traceFigures fills the measurement-health metrics from a traced phase
// and the untraced phase run beside it.
func (o *outcome) traceFigures(rec *recorder, untracedLat, tracedLat []float64) {
	spans := rec.all()
	self := selfTimes(spans)
	o.share("bench.unattributed_pct", ratio{Num: float64(self["bench.op"]), Base: float64(opWall(spans))}, 100)
	pu, err1 := percentile(untracedLat, 0.5)
	pt, err2 := percentile(tracedLat, 0.5)
	if err1 != nil || err2 != nil {
		o.note("bench.trace_overhead_pct: %v %v", err1, err2)
	} else {
		o.set("bench.trace_overhead_pct", 100*(pt-pu)/pu, len(tracedLat))
	}
	o.rec = rec
}

// phases splits a run's measured time: all of it untraced, or half untraced
// and half traced.
func (opt options) phases() (untraced, traced time.Duration) {
	if !opt.trace {
		return opt.seconds, 0
	}
	return opt.seconds / 2, opt.seconds - opt.seconds/2
}

// minOps is the fewest ops a measured phase completes, so its p90 has ten
// samples beyond it; a phase runs past its time until it has them.
const minOps = 100
