package core_test

import (
	"fmt"
	"testing"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// selOracle gives clones of a DAG's ground-truth oracle distinct IDs.
type selOracle struct {
	crowd.Member
	id string
}

func (o selOracle) ID() string { return o.id }

// BenchmarkWideBorderConfirmations regression-guards the witness-based
// MSP-confirmation tracking. The old settle path rescanned the entire
// significant border after every insignificant mark — O(border ×
// successors) per settle, quadratic over a run on a DAG whose border grows
// wide. The witness scheme advances a per-node cursor instead, so each
// (border node, successor) pair is inspected O(1) times across the whole
// run. This workload plants a dense MSP layer in a wide shallow DAG —
// the border holds hundreds of significant nodes while their children
// settle insignificant one by one — which is exactly the old wall.
func BenchmarkWideBorderConfirmations(b *testing.B) {
	d, err := synth.NewDAG(synth.DAGConfig{
		Width: 160, Depth: 3, MSPPercent: 0.35, Places: 2, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	theta := d.Query.Satisfying.Support
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := make([]crowd.Member, 3)
		for j := range pool {
			pool[j] = selOracle{Member: d.Oracle(0, int64(j+1)), id: fmt.Sprintf("m%d", j)}
		}
		res := core.NewEngine(d.Space, pool, core.EngineConfig{
			Theta:      theta,
			Aggregator: crowd.NewMeanAggregator(2, theta),
			Seed:       5,
		}).Run()
		if len(res.MSPs) == 0 {
			b.Fatal("wide-border run confirmed no MSPs")
		}
		questions += res.Stats.Questions
	}
	b.ReportMetric(float64(questions)/b.Elapsed().Seconds(), "questions/s")
}
