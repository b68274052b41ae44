package exp

import (
	"fmt"
	"strings"
	"time"

	"oassis/internal/chaos"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/synth"
)

// The chaos-resilience study measures what the paper's evaluation could
// not: how the engine degrades when the crowd misbehaves. A synthetic DAG
// is mined by a pool of oracle clones with heavy-tailed answer latency
// while a growing fraction of the pool departs mid-run; the whole scenario
// runs on a virtual clock so the simulated wall-clock cost comes for free
// and every row replays deterministically from the seed.

// ChaosRow is one departure-rate point of the resilience study.
type ChaosRow struct {
	// DepartFraction is the fraction of the member pool configured to
	// leave mid-run; Departed is how many the engine actually wrote off.
	DepartFraction float64
	Members        int
	Departed       int
	// Questions counts answered crowd questions (departures excluded).
	Questions int
	MSPs      int
	// RecallPct is the share of the fault-free run's MSPs this degraded
	// run still reported.
	RecallPct float64
	// VirtualHours is the simulated wall-clock cost under the latency
	// faults.
	VirtualHours float64
}

// ChaosResilience sweeps departure rates over one synthetic DAG mined by
// oracle clones with heavy-tailed latency. rates should start at 0: the
// first row doubles as the fault-free recall baseline.
func ChaosResilience(dagCfg synth.DAGConfig, members int, rates []float64, seed int64) ([]ChaosRow, error) {
	var rows []ChaosRow
	var baseline map[string]bool
	for _, rate := range rates {
		cfg := dagCfg
		cfg.Obs = obsv
		d, err := synth.NewDAG(cfg)
		if err != nil {
			return nil, err
		}
		clock := chaos.NewVirtualClock()
		departing := int(rate * float64(members))
		pool := make([]crowd.Member, members)
		for i := range pool {
			f := chaos.Faults{
				Seed:           seed*1000 + int64(i),
				ID:             fmt.Sprintf("oracle-%d", i),
				LatencyMin:     20 * time.Second,
				LatencyMax:     3 * time.Minute,
				HeavyTailAlpha: 1.5,
			}
			if i < departing {
				f.DepartAfter = 2 + i
			}
			pool[i] = chaos.Wrap(d.Oracle(0, seed+int64(i)), clock, f)
		}
		theta := d.Query.Satisfying.Support
		mine := span("mine")
		res := core.NewEngine(d.Space, pool, core.EngineConfig{
			Theta:      theta,
			Aggregator: crowd.NewMeanAggregator(3, theta),
			Seed:       seed,
			Clock:      clock,
			Obs:        obsv,
		}).Run()
		mine(obs.Attr{Key: "depart_pct", Val: int64(100 * rate)},
			obs.Attr{Key: "questions", Val: int64(res.Stats.Questions)})
		found := make(map[string]bool, len(res.MSPs))
		for _, m := range res.MSPs {
			found[m.Key()] = true
		}
		if baseline == nil {
			baseline = found
		}
		hits := 0
		for k := range baseline {
			if found[k] {
				hits++
			}
		}
		recall := 100.0
		if len(baseline) > 0 {
			recall = 100 * float64(hits) / float64(len(baseline))
		}
		rows = append(rows, ChaosRow{
			DepartFraction: rate,
			Members:        members,
			Departed:       res.Stats.Departures,
			Questions:      res.Stats.Questions,
			MSPs:           len(res.MSPs),
			RecallPct:      recall,
			VirtualHours:   clock.Elapsed().Hours(),
		})
	}
	return rows, nil
}

// RenderChaos formats the resilience study.
func RenderChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Chaos resilience — departure-rate sweep (oracle clones, heavy-tailed latency, virtual clock;")
	fmt.Fprintln(&b, "recall is vs the fault-free row; the run must stay sound as the crowd shrinks):")
	fmt.Fprintf(&b, "%8s %9s %9s %10s %6s %8s %10s\n",
		"depart%", "members", "departed", "questions", "MSPs", "recall%", "virtual")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7.0f%% %9d %9d %10d %6d %7.1f%% %8.1f h\n",
			100*r.DepartFraction, r.Members, r.Departed, r.Questions,
			r.MSPs, r.RecallPct, r.VirtualHours)
	}
	return b.String()
}
