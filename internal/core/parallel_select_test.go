package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"oassis/internal/assign"
	"oassis/internal/chaos"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/paperdata"
	"oassis/internal/synth"
)

// The tests in this file pin the serial selection kernel's output. Their
// scenario table once served to compare a sharded, speculative round
// selection against the serial kernel; that path is gone, and the table
// now checks that the serial kernel still reproduces, bit for bit, the
// output it produced when that comparison last passed. Each scenario's
// fingerprint — MSP sets, per-member transcripts, aggregated supports and
// the entire Stats block — is reduced to a digest and compared with the
// recorded one in selectionDigests.

// selFingerprint is everything a caller can observe about a finished run.
type selFingerprint struct {
	msps, valid, sig string
	supports         map[string]float64
	transcripts      map[string][]string
	stats            core.Stats
}

func keyset(as []*assign.Assignment) string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func fingerprint(res *core.Result) selFingerprint {
	return selFingerprint{
		msps:        keyset(res.MSPs),
		valid:       keyset(res.ValidMSPs),
		sig:         keyset(res.Significant),
		supports:    res.Supports,
		transcripts: res.Transcripts,
		stats:       res.Stats,
	}
}

// digest hashes a fingerprint. fmt prints maps in sorted key order and
// floats in their shortest exact form, so equal fingerprints give equal
// digests on every platform.
func (f selFingerprint) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%v\x00%v\x00%+v", f.msps, f.valid, f.sig, f.supports, f.transcripts, f.stats)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// diffFingerprints reports the first component where two fingerprints
// disagree, for readable failure messages.
func diffFingerprints(a, b selFingerprint) string {
	switch {
	case a.msps != b.msps:
		return fmt.Sprintf("MSP sets differ:\n%s\nvs\n%s", a.msps, b.msps)
	case a.valid != b.valid:
		return "valid-MSP sets differ"
	case a.sig != b.sig:
		return "significant sets differ"
	case !reflect.DeepEqual(a.supports, b.supports):
		return fmt.Sprintf("support maps differ: %v\nvs\n%v", a.supports, b.supports)
	case !reflect.DeepEqual(a.transcripts, b.transcripts):
		return fmt.Sprintf("transcripts differ:\n%v\nvs\n%v", a.transcripts, b.transcripts)
	case !reflect.DeepEqual(a.stats, b.stats):
		return fmt.Sprintf("stats differ:\n%+v\nvs\n%+v", a.stats, b.stats)
	default:
		return ""
	}
}

// checkDigest fails t unless fp matches the digest recorded for name.
func checkDigest(t *testing.T, name string, fp selFingerprint) {
	t.Helper()
	got := fp.digest()
	want, ok := selectionDigests[name]
	if !ok {
		t.Fatalf("no recorded digest for %s: got %s", name, got)
	}
	if got != want {
		t.Fatalf("serial selection output changed for %s: digest %s, recorded %s\nMSPs:\n%s\nstats: %+v",
			name, got, want, fp.msps, fp.stats)
	}
}

// selDAGCache shares immutable DAG spaces across combos (the engine never
// mutates a Space; classification state lives in the per-run kernel).
var selDAGCache = map[synth.DAGConfig]*synth.DAG{}

func selDAG(t *testing.T, cfg synth.DAGConfig) *synth.DAG {
	t.Helper()
	if d, ok := selDAGCache[cfg]; ok {
		return d
	}
	d, err := synth.NewDAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	selDAGCache[cfg] = d
	return d
}

// TestParallelSelectionTranscriptIdentical sweeps >100 randomized
// scenario combinations — DAG shapes, crowd sizes, aggregator families,
// specialization ratios, pruning oracles, spammers with the consistency
// filter, per-member question caps and top-k stops — and for each one
// requires the serial engine to reproduce its recorded output bit for
// bit, and to do so again on a second run.
func TestParallelSelectionTranscriptIdentical(t *testing.T) {
	dags := []synth.DAGConfig{
		{Width: 12, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 3},
		{Width: 18, Depth: 3, MSPPercent: 0.05, Places: 1, Seed: 4},
		{Width: 24, Depth: 4, MSPPercent: 0.08, Places: 2, Seed: 5},
	}
	type aggMaker struct {
		name string
		mk   func(k int, theta float64) crowd.Aggregator
	}
	aggs := []aggMaker{
		{"mean", func(k int, th float64) crowd.Aggregator { return crowd.NewMeanAggregator(k, th) }},
		{"majority", func(k int, th float64) crowd.Aggregator { return crowd.NewMajorityAggregator(k, th) }},
		{"trust", func(k int, th float64) crowd.Aggregator { return crowd.NewTrustWeightedAggregator(k, th) }},
	}
	crowds := []int{2, 3, 5, 9}

	// Mixed-radix enumeration over the first three dimensions covers every
	// (dag, aggregator, crowd) pairing; a seeded rng scatters the rest so
	// they do not correlate with the enumerated digits.
	aux := rand.New(rand.NewSource(99))
	const combos = 108 // 3 dags × 3 aggregators × 4 crowd sizes × 3 repeats
	totalMSPs, totalQuestions := 0, 0
	for i := 0; i < combos; i++ {
		j := i
		dagCfg := dags[j%len(dags)]
		j /= len(dags)
		agg := aggs[j%len(aggs)]
		j /= len(aggs)
		members := crowds[j%len(crowds)]

		spec := []float64{0, 0.15, 0.5}[aux.Intn(3)]
		prune := []float64{0, 0, 0.3}[aux.Intn(3)]
		maxQ := []int{0, 0, 7}[aux.Intn(3)]
		topk := []int{0, 0, 2}[aux.Intn(3)]
		consist := aux.Intn(3) == 0
		quorum := 2 + aux.Intn(2)
		if quorum > members {
			quorum = members
		}
		seed := int64(100 + i)

		d := selDAG(t, dagCfg)
		theta := d.Query.Satisfying.Support
		name := fmt.Sprintf("%03d-%s-m%d-w%dd%d", i, agg.name, members, dagCfg.Width, dagCfg.Depth)
		t.Run(name, func(t *testing.T) {
			run := func() *core.Result {
				pool := make([]crowd.Member, members)
				for m := range pool {
					pool[m] = selOracle{Member: d.Oracle(prune, int64(m+1)), id: fmt.Sprintf("m%d", m)}
				}
				if consist && members > 2 {
					// One spammer for the consistency filter to chew on.
					pool[members-1] = crowd.NewSpammer(fmt.Sprintf("m%d", members-1), seed)
				}
				cfg := core.EngineConfig{
					Theta:                 theta,
					Aggregator:            agg.mk(quorum, theta),
					SpecializationRatio:   spec,
					MaxQuestionsPerMember: maxQ,
					MaxMSPs:               topk,
					Seed:                  seed,
					RecordTranscript:      true,
				}
				if consist {
					cfg.Consistency = true
					cfg.CalibrationQuestions = 2
				}
				return core.NewEngine(d.Space, pool, cfg).Run()
			}
			ref := fingerprint(run())
			totalMSPs += len(strings.Split(ref.msps, "\n"))
			totalQuestions += ref.stats.Questions
			checkDigest(t, name, ref)
			if got := fingerprint(run()); !reflect.DeepEqual(got, ref) {
				t.Fatalf("second run diverged: %s", diffFingerprints(got, ref))
			}
		})
	}
	// The sweep must not be vacuous.
	if totalMSPs == 0 || totalQuestions == 0 {
		t.Fatalf("degenerate sweep: %d MSPs, %d questions across all combos", totalMSPs, totalQuestions)
	}
}

// TestParallelSelectionChaosVirtualClock replays a fault-injected crowd —
// fixed think times, one chronic straggler who exceeds the answer
// deadline until dropped, and two mid-run departures — on a virtual clock,
// and requires the serial engine to reproduce its recorded run exactly,
// including the timeout/departure bookkeeping in Stats.
func TestParallelSelectionChaosVirtualClock(t *testing.T) {
	run := func() *core.Result {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		clock := chaos.NewVirtualClock()
		faults := make([]chaos.Faults, 8)
		for i := range faults {
			faults[i].LatencyMin = 20 * time.Second
		}
		faults[2].LatencyMin = 2 * time.Minute // always over the deadline
		faults[1].DepartAfter = 2
		faults[5].DepartAfter = 4
		members := chaosCrowd(v, clock, faults)
		return core.NewEngine(sp, members, core.EngineConfig{
			Theta:            0.4,
			Aggregator:       crowd.NewMeanAggregator(5, 0.4),
			Seed:             3,
			AnswerDeadline:   time.Minute,
			Clock:            clock,
			RecordTranscript: true,
		}).Run()
	}
	ref := fingerprint(run())
	if ref.stats.Departures == 0 {
		t.Fatal("chaos scenario exercised no departures")
	}
	if ref.stats.TimedOut == 0 {
		t.Fatal("chaos scenario exercised no answer timeouts")
	}
	checkDigest(t, "chaos", ref)
	if got := fingerprint(run()); !reflect.DeepEqual(got, ref) {
		t.Fatalf("second run diverged under chaos: %s", diffFingerprints(got, ref))
	}
}

// opaqueAgg hides every method of an aggregator beyond the
// crowd.Aggregator interface and Quota.
type opaqueAgg struct{ inner crowd.Aggregator }

func (o opaqueAgg) Add(id assign.NodeID, m string, s float64) { o.inner.Add(id, m, s) }
func (o opaqueAgg) Decide(id assign.NodeID) crowd.Decision    { return o.inner.Decide(id) }
func (o opaqueAgg) Answers(id assign.NodeID) int              { return o.inner.Answers(id) }
func (o opaqueAgg) Support(id assign.NodeID) float64          { return o.inner.Support(id) }
func (o opaqueAgg) Quota() int {
	return o.inner.(interface{ Quota() int }).Quota()
}

// TestParallelSelectionFallbackGates: the kernel must not depend on an
// aggregator's concrete type. A run through an aggregator that exposes
// only the crowd.Aggregator interface must reproduce the run through the
// bare aggregator, and both the recorded output.
func TestParallelSelectionFallbackGates(t *testing.T) {
	d := selDAG(t, synth.DAGConfig{Width: 12, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 3})
	theta := d.Query.Satisfying.Support
	run := func(wrap bool) *core.Result {
		pool := make([]crowd.Member, 4)
		for m := range pool {
			pool[m] = selOracle{Member: d.Oracle(0, int64(m+1)), id: fmt.Sprintf("m%d", m)}
		}
		var agg crowd.Aggregator = crowd.NewMeanAggregator(3, theta)
		if wrap {
			agg = opaqueAgg{inner: agg}
		}
		return core.NewEngine(d.Space, pool, core.EngineConfig{
			Theta:               theta,
			Aggregator:          agg,
			SpecializationRatio: 0.15,
			Seed:                11,
			RecordTranscript:    true,
		}).Run()
	}
	ref := fingerprint(run(false))
	checkDigest(t, "fallback", ref)
	if got := fingerprint(run(true)); !reflect.DeepEqual(got, ref) {
		t.Fatalf("opaque aggregator diverged from the bare one: %s", diffFingerprints(got, ref))
	}
}

// selectionDigests holds each scenario's fingerprint digest as recorded
// from the serial kernel.
var selectionDigests = map[string]string{
	"000-mean-m2-w12d3":     "1d3a89c10e4ba9fd",
	"001-mean-m2-w18d3":     "fbdd23c0e5077525",
	"002-mean-m2-w24d4":     "0aa56134e458e1d5",
	"003-majority-m2-w12d3": "eefde53c2ed0b5a0",
	"004-majority-m2-w18d3": "76bb61a3cfe9002f",
	"005-majority-m2-w24d4": "322d01169d8b730d",
	"006-trust-m2-w12d3":    "b76a05bb10de17c7",
	"007-trust-m2-w18d3":    "82389e1422dcd236",
	"008-trust-m2-w24d4":    "75ea9cd1026a2689",
	"009-mean-m3-w12d3":     "6e28bc5f2beddb05",
	"010-mean-m3-w18d3":     "a876d26807d37374",
	"011-mean-m3-w24d4":     "da8c339b341c3fa2",
	"012-majority-m3-w12d3": "59d1e0a037a9bf90",
	"013-majority-m3-w18d3": "dc7fd729cef8f2ad",
	"014-majority-m3-w24d4": "ee0a4b64096bb937",
	"015-trust-m3-w12d3":    "3f27301582f726d6",
	"016-trust-m3-w18d3":    "aed55958c5f6013f",
	"017-trust-m3-w24d4":    "7964f7d2c207a72d",
	"018-mean-m5-w12d3":     "1eb9ca24f2637ea9",
	"019-mean-m5-w18d3":     "aee48a94cc985d0c",
	"020-mean-m5-w24d4":     "1f25f58d21a3170e",
	"021-majority-m5-w12d3": "396d93e835b7f4ff",
	"022-majority-m5-w18d3": "a0ded9f72c56890d",
	"023-majority-m5-w24d4": "21df3bd56d4bcb72",
	"024-trust-m5-w12d3":    "29c215412703140a",
	"025-trust-m5-w18d3":    "5d0673851596a659",
	"026-trust-m5-w24d4":    "0deb344c7ca12b3e",
	"027-mean-m9-w12d3":     "5343cc63376093e6",
	"028-mean-m9-w18d3":     "8ff9dc80f5f791f2",
	"029-mean-m9-w24d4":     "013fd094ea7b19f5",
	"030-majority-m9-w12d3": "36f44c619b7b9526",
	"031-majority-m9-w18d3": "1f9634e52ce05b0b",
	"032-majority-m9-w24d4": "048eefd95191d758",
	"033-trust-m9-w12d3":    "de43b8a6af46e889",
	"034-trust-m9-w18d3":    "071771bc74bc0a34",
	"035-trust-m9-w24d4":    "3e920b1af5c88003",
	"036-mean-m2-w12d3":     "633076685dd58aca",
	"037-mean-m2-w18d3":     "9ffa3a2dbad1c860",
	"038-mean-m2-w24d4":     "7458122553243f95",
	"039-majority-m2-w12d3": "633076685dd58aca",
	"040-majority-m2-w18d3": "7d2645024c9cd58c",
	"041-majority-m2-w24d4": "7cb7c74b45ddc8da",
	"042-trust-m2-w12d3":    "eefde53c2ed0b5a0",
	"043-trust-m2-w18d3":    "4cd80d616e60d824",
	"044-trust-m2-w24d4":    "27d42a4ab4d89b5e",
	"045-mean-m3-w12d3":     "c5a03255db89834e",
	"046-mean-m3-w18d3":     "97a8dad28d059de7",
	"047-mean-m3-w24d4":     "fcbda3fe1aaf52cd",
	"048-majority-m3-w12d3": "737f3a09ed7677f7",
	"049-majority-m3-w18d3": "f77ffe2d9fd6b020",
	"050-majority-m3-w24d4": "da42983f9cf46610",
	"051-trust-m3-w12d3":    "393e26ad5151e3a6",
	"052-trust-m3-w18d3":    "1e6c4d07028a2e13",
	"053-trust-m3-w24d4":    "fb2cb5eaff990f6c",
	"054-mean-m5-w12d3":     "b60567581af63827",
	"055-mean-m5-w18d3":     "b53f266a4d5e48c8",
	"056-mean-m5-w24d4":     "91ea0a1b3ceb1d14",
	"057-majority-m5-w12d3": "17246b131301b437",
	"058-majority-m5-w18d3": "6eaf2aace2b280dc",
	"059-majority-m5-w24d4": "a6b1a69205ae8357",
	"060-trust-m5-w12d3":    "118dbc24d6de9cd6",
	"061-trust-m5-w18d3":    "5da75885159fe18e",
	"062-trust-m5-w24d4":    "d746b2e3b2799675",
	"063-mean-m9-w12d3":     "9e894f407542470f",
	"064-mean-m9-w18d3":     "72672bc27d6aba1c",
	"065-mean-m9-w24d4":     "f35853d358a30c34",
	"066-majority-m9-w12d3": "173679f88444f507",
	"067-majority-m9-w18d3": "98fb6f1f238eaf2e",
	"068-majority-m9-w24d4": "24237e919ccce71f",
	"069-trust-m9-w12d3":    "8b3613c15afeb93b",
	"070-trust-m9-w18d3":    "887934bb5ba72823",
	"071-trust-m9-w24d4":    "6caac2e0597c493e",
	"072-mean-m2-w12d3":     "328f4402ec46b80f",
	"073-mean-m2-w18d3":     "b66fd62b163a3b71",
	"074-mean-m2-w24d4":     "3c299e65e7bce0a1",
	"075-majority-m2-w12d3": "9545310b5a9ad837",
	"076-majority-m2-w18d3": "3f378150c46e4919",
	"077-majority-m2-w24d4": "3c299e65e7bce0a1",
	"078-trust-m2-w12d3":    "305bff68fe0d9a4f",
	"079-trust-m2-w18d3":    "aa0209b4a9b778c3",
	"080-trust-m2-w24d4":    "6372c7a49226e9a1",
	"081-mean-m3-w12d3":     "7c9fd13f061c40a3",
	"082-mean-m3-w18d3":     "9c78b39fede4e244",
	"083-mean-m3-w24d4":     "43a310fb62b9af9e",
	"084-majority-m3-w12d3": "7bebecec8781e522",
	"085-majority-m3-w18d3": "2f405860bb5b4a92",
	"086-majority-m3-w24d4": "a4d77e061df48cad",
	"087-trust-m3-w12d3":    "85b41582188fce34",
	"088-trust-m3-w18d3":    "a58362094858b265",
	"089-trust-m3-w24d4":    "0f6ecc62ad733041",
	"090-mean-m5-w12d3":     "305c9e3d17b647a7",
	"091-mean-m5-w18d3":     "a0ded9f72c56890d",
	"092-mean-m5-w24d4":     "ce7851d78c7e4dfc",
	"093-majority-m5-w12d3": "016b63e3633d6bcd",
	"094-majority-m5-w18d3": "7a45441b3e480855",
	"095-majority-m5-w24d4": "ad15c77f2dd71887",
	"096-trust-m5-w12d3":    "32171de38fd6dfc7",
	"097-trust-m5-w18d3":    "7a45441b3e480855",
	"098-trust-m5-w24d4":    "a0537b1fed4a0fce",
	"099-mean-m9-w12d3":     "c87632d5ff500e8a",
	"100-mean-m9-w18d3":     "0b141134a71bebb7",
	"101-mean-m9-w24d4":     "f346dc24a5bc4660",
	"102-majority-m9-w12d3": "14382af31f28cceb",
	"103-majority-m9-w18d3": "8fddbcc5b234aa39",
	"104-majority-m9-w24d4": "013fd094ea7b19f5",
	"105-trust-m9-w12d3":    "08719f073d7f3405",
	"106-trust-m9-w18d3":    "89cadfa0f5a343b7",
	"107-trust-m9-w24d4":    "3e920b1af5c88003",
	"chaos":                 "f264574118b8f7f2",
	"fallback":              "36cc2459f7c002d5",
}
