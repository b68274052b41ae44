package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"oassis"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// domain-mine: closed loop, one client. One op poses a Section 6.3 domain
// query to a fresh session and mines the simulated crowd to completion:
// ParseQuery + NewSession + Session.Run. The kernel does most of the work;
// every op builds a new session, so the lazy lattice starts cold, as it does
// for a user posing a query.

const (
	// domainMembers is the crowd size of the paper's figures.
	domainMembers = 248
	// domainInstances is how many generated instances of each domain a run
	// mines, each with its own engine seed; averaging over several keeps
	// one unlucky instance from moving the run's figures.
	domainInstances = 6
	// memberPruneRatio is the generator's pruning-click probability; the
	// crowd text format does not carry it, so it is set after loading.
	memberPruneRatio = 0.25
)

// domainInput is one generated domain instance, as text the program loads.
type domainInput struct {
	name     string
	ontology []byte
	crowd    []byte
	query    string
	morePool []string // tip facts, one "subject relation object" line each
}

// generateDomain builds one domain instance on the benchmark side and
// renders it to the text formats.
func generateDomain(cfg synth.DomainConfig) (*domainInput, error) {
	d, err := synth.NewDomain(cfg)
	if err != nil {
		return nil, err
	}
	in := &domainInput{name: cfg.Name, query: d.Query.String()}
	var ob, cb bytes.Buffer
	if err := oassis.WriteOntology(&ob, d.Store); err != nil {
		return nil, err
	}
	sims := make([]*crowd.SimMember, len(d.Members))
	for i, m := range d.Members {
		sims[i] = m.(*crowd.SimMember)
	}
	if err := oassis.WriteCrowd(&cb, d.Vocab, sims); err != nil {
		return nil, err
	}
	in.ontology, in.crowd = ob.Bytes(), cb.Bytes()
	for _, f := range d.MorePool {
		in.morePool = append(in.morePool, oassis.FormatFact(f, d.Vocab))
	}
	return in, nil
}

// domainRig is one domain instance loaded through the public loaders.
type domainRig struct {
	in      *domainInput
	v       *oassis.Vocabulary
	store   *oassis.Ontology
	members []*oassis.SimMember
	pool    oassis.FactSet
}

// loadDomain loads one instance; it returns the ontology load time apart.
func loadDomain(in *domainInput, seed int64) (*domainRig, time.Duration, error) {
	t0 := time.Now()
	v, store, err := oassis.LoadOntology(bytes.NewReader(in.ontology))
	if err != nil {
		return nil, 0, fmt.Errorf("%s ontology: %w", in.name, err)
	}
	ontoTime := time.Since(t0)
	members, err := oassis.LoadCrowdSim(bytes.NewReader(in.crowd), v, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s crowd: %w", in.name, err)
	}
	r := &domainRig{in: in, v: v, store: store, members: members}
	if len(in.morePool) > 0 {
		facts := make([]oassis.Fact, len(in.morePool))
		for i, line := range in.morePool {
			if facts[i], err = oassis.ParseFact(line, v); err != nil {
				return nil, 0, fmt.Errorf("%s tip pool: %w", in.name, err)
			}
		}
		r.pool = oassis.NewFactSet(facts...)
	}
	return r, ontoTime, nil
}

// crowdFor builds a fresh crowd for one op: members draw pruning clicks
// from a seeded generator, so reusing them would make a repeat of the same
// (instance, engine seed) pair ask differently.
func (r *domainRig) crowdFor(seed int64, timer *memberTimer) []oassis.Member {
	out := make([]oassis.Member, len(r.members))
	for i, m := range r.members {
		sm := oassis.NewSimMember(m.ID(), r.v, m.DB(), seed+int64(i))
		sm.PruneRatio = memberPruneRatio
		if timer != nil {
			out[i] = &timedMember{Member: sm, t: timer}
		} else {
			out[i] = sm
		}
	}
	return out
}

// memberTimer sums the time the simulated crowd spends answering during
// one op, so it is not credited to the kernel.
type memberTimer struct {
	busy        time.Duration
	calls       int
	first, last time.Time
}

func (t *memberTimer) track(start time.Time) {
	end := time.Now()
	if t.calls == 0 {
		t.first = start
	}
	t.last = end
	t.busy += end.Sub(start)
	t.calls++
}

// timedMember wraps a member with the op's timer. Session.Run asks members
// from a single goroutine, so the timer needs no lock.
type timedMember struct {
	oassis.Member
	t *memberTimer
}

func (m *timedMember) AskConcrete(fs oassis.FactSet) oassis.Response {
	defer m.t.track(time.Now())
	return m.Member.AskConcrete(fs)
}

func (m *timedMember) AskSpecialize(base oassis.FactSet, cands []oassis.FactSet) (int, oassis.Response) {
	defer m.t.track(time.Now())
	return m.Member.AskSpecialize(base, cands)
}

// domainOp is one (instance, engine seed) pair the ops cycle over.
type domainOp struct {
	rig        *domainRig
	engineSeed int64
}

// runDigest is what must repeat exactly when a pair is mined again.
func runDigest(res *oassis.Result) string {
	keys := func(as []*oassis.Assignment) string {
		ks := make([]string, len(as))
		for i, a := range as {
			ks[i] = a.Key()
		}
		sort.Strings(ks)
		return strings.Join(ks, ";")
	}
	s := res.Stats
	return fmt.Sprintf("msps=%s|valid=%s|q=%d c=%d s=%d none=%d prune=%d auto=%d gen=%d rounds=%d asked=%d",
		keys(res.MSPs), keys(res.ValidMSPs), s.Questions, s.ConcreteQ, s.SpecialQ, s.NoneOfThese,
		s.PruneClicks, s.AutoAnswers, s.Generated, s.Rounds, s.Asked)
}

// domainPhase is what one measured phase of domain-mine collected.
type domainPhase struct {
	lat, parse, session, kernelSelf, firstMSP []float64
	wall                                      time.Duration
	questions, rounds, nodes                  int
	memberBusy                                time.Duration
	memberCalls                               int
	kernelSelfSum                             time.Duration
}

func runDomainMine(opt options) (*outcome, error) {
	out := newOutcome()
	genStart := time.Now()
	makers := []func(int, int64) synth.DomainConfig{synth.Travel, synth.Culinary, synth.SelfTreatment}
	var inputs []*domainInput
	// The instances are fixed; the workload seed picks the engine seeds.
	// Mining cost differs by up to half between instances of one domain,
	// so instances drawn per seed moved the run's median op by a quarter.
	for g := 0; g < domainInstances; g++ {
		for di, mk := range makers {
			in, err := generateDomain(mk(domainMembers, int64(10*g+di+1)))
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
		}
	}
	out.set("bench.generate_s", time.Since(genStart).Seconds(), 1)

	var setups, loads []float64
	var rigs []*domainRig
	facts := 0
	for rep := 0; rep < domainSetups; rep++ {
		rigs, facts = nil, 0
		t0 := time.Now()
		var onto time.Duration
		for _, in := range inputs {
			r, d, err := loadDomain(in, opt.seed)
			if err != nil {
				return nil, err
			}
			rigs = append(rigs, r)
			onto += d
			facts += r.store.Size()
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, onto.Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	out.set("ontology.load_s", median(loads), len(loads))
	out.set("ontology.triples_per_s", float64(facts)/median(loads), len(loads))

	// Ops cycle over domain × engine seed in generation order, which
	// interleaves the domains, so a phase cut short still mines each about
	// equally often.
	cycle := make([]domainOp, len(rigs))
	for i, r := range rigs {
		cycle[i] = domainOp{rig: r, engineSeed: opt.seed*10 + int64(i/len(makers))}
	}
	type pairRun struct {
		digest    string
		questions int
	}
	want := make(map[int]pairRun) // cycle index -> its first run
	cacheBefore := make([][2]int64, len(rigs))
	for i, r := range rigs {
		h, m, _ := planCacheStats(r.store)
		cacheBefore[i] = [2]int64{h, m}
	}

	opID := int64(0)
	measure := func(d time.Duration, rec *recorder) *domainPhase {
		p := &domainPhase{}
		start := time.Now()
		for k := 0; time.Since(start) < d || k < minOps; k++ {
			idx := k % len(cycle)
			c := cycle[idx]
			var timer *memberTimer
			if rec != nil {
				timer = &memberTimer{}
			}
			members := c.rig.crowdFor(c.engineSeed*1000, timer)
			out.attempted++
			opID++
			tr := rec.begin(opID, fmt.Sprintf("%s/%d", c.rig.in.name, c.engineSeed))
			var first time.Time
			t0 := time.Now()
			sp := tr.start("oassisql.parse", 0)
			q, err := oassis.ParseQuery(c.rig.in.query, c.rig.v)
			tr.stop(sp)
			t1 := time.Now()
			if err != nil {
				out.failed++
				out.note("op %d: parse: %v", opID, err)
				continue
			}
			sp = tr.start("oassis.new_session", 0)
			sess, err := oassis.NewSession(c.rig.store, q,
				oassis.WithSeed(c.engineSeed),
				oassis.WithMorePool(c.rig.pool),
				oassis.WithOnMSP(func(*oassis.Assignment) {
					if first.IsZero() {
						first = time.Now()
					}
				}))
			tr.stop(sp)
			t2 := time.Now()
			if err != nil {
				out.failed++
				out.note("op %d: session: %v", opID, err)
				continue
			}
			sp = tr.start("core.run", 0)
			res, err := sess.Run(members)
			tr.stop(sp)
			t3 := time.Now()
			if timer != nil {
				tr.aggregate("crowd.members", sp, timer.first, timer.last, timer.busy, timer.calls)
			}
			tr.finish()
			if err != nil {
				out.failed++
				out.note("op %d: run: %v", opID, err)
				continue
			}
			// Correctness: a pair's MSPs and cost counters repeat exactly,
			// and the run finds at least one valid MSP.
			dig := runDigest(res)
			if w, seen := want[idx]; !seen {
				want[idx] = pairRun{dig, res.Stats.Questions}
			} else if w.digest != dig {
				out.failed++
				out.note("op %d: %s seed %d diverged from its first run", opID, c.rig.in.name, c.engineSeed)
				continue
			}
			if len(res.ValidMSPs) == 0 {
				out.failed++
				out.note("op %d: %s found no valid MSP", opID, c.rig.in.name)
				continue
			}
			p.lat = append(p.lat, ms(t3.Sub(t0)))
			p.parse = append(p.parse, us(t1.Sub(t0)))
			p.session = append(p.session, ms(t2.Sub(t1)))
			if !first.IsZero() {
				p.firstMSP = append(p.firstMSP, ms(first.Sub(t0)))
			}
			p.questions += res.Stats.Questions
			p.rounds += res.Stats.Rounds
			p.nodes += sess.SpaceStats().Nodes
			if timer != nil {
				self := t3.Sub(t2) - timer.busy
				p.kernelSelf = append(p.kernelSelf, ms(self))
				p.kernelSelfSum += self
				p.memberBusy += timer.busy
				p.memberCalls += timer.calls
			}
		}
		p.wall = time.Since(start)
		return p
	}

	untraced, traced := opt.phases()
	pu := measure(untraced, nil)
	out.set("heap_mb", heapMB(), 1)
	out.opFigures(pu.lat, len(pu.lat), pu.wall)
	p := pu
	if opt.trace {
		rec := newRecorder()
		p = measure(traced, rec)
		out.traceFigures(rec, pu.lat, p.lat)
		out.pct("core.kernel_self_ms_p50", p.kernelSelf, 0.5)
		out.share("core.kernel_us_per_question", ratio{Num: us(p.kernelSelfSum), Base: float64(p.questions)}, 1)
		out.share("crowd.member_us_per_answer", ratio{Num: us(p.memberBusy), Base: float64(p.memberCalls)}, 1)
		out.share("crowd.member_share", ratio{Num: float64(p.memberBusy), Base: float64(p.wall)}, 1)
	}
	ops := len(p.lat)
	out.set("questions_per_s", float64(p.questions)/p.wall.Seconds(), ops)
	// The mean over the cycle's pairs, each counted once: an exact count
	// that does not depend on where the phase was cut.
	pairQ := 0
	for _, w := range want {
		pairQ += w.questions
	}
	out.share("questions_per_op", ratio{Num: float64(pairQ), Base: float64(len(want))}, 1)
	out.pct("first_msp_p50_ms", p.firstMSP, 0.5)
	out.pct("oassisql.parse_us_p50", p.parse, 0.5)
	out.pct("oassis.new_session_ms_p50", p.session, 0.5)
	out.share("assign.space_nodes_per_op", ratio{Num: float64(p.nodes), Base: float64(ops)}, 1)
	out.share("core.rounds_per_op", ratio{Num: float64(p.rounds), Base: float64(ops)}, 1)
	var hits, misses, entries int64
	for i, r := range rigs {
		h, m, e := planCacheStats(r.store)
		hits += h - cacheBefore[i][0]
		misses += m - cacheBefore[i][1]
		entries += e
	}
	out.share("sparql.plan_cache_hit_ratio", ratio{Num: float64(hits), Base: float64(hits + misses)}, 1)
	out.set("sparql.plan_cache_entries", float64(entries), len(rigs))
	return out, nil
}
