package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oassis"
	"oassis/internal/server"
	"oassis/internal/synth"
)

// serve-http: the HTTP crowd platform (internal/server) on a loopback
// listener, deployed as `oassis-serve -shared-store -metrics -journal`
// (journal kept as a ring). The self-treatment query is registered four
// times, once per Figure 4 threshold, over one shared answer store bounded
// below the number of distinct (member, question) pairs the four ask. The
// simulated members answer over HTTP from GOMAXPROCS client goroutines,
// each with one keep-alive connection; runs cycle POST /start?query=...
// through the thresholds. One op is one POST /answer.

// serveThresholds are the Figure 4 support thresholds.
var serveThresholds = []string{"0.2", "0.3", "0.4", "0.5"}

const (
	// serveStoreShare bounds the shared store at this share of the distinct
	// questions the four thresholds ask, so LRU evictions keep sending
	// some questions back to the crowd over HTTP.
	serveStoreShare = 0.9
	// serveRunLimit bounds one mining run; a run takes tens of
	// milliseconds, so reaching it means the platform stopped serving.
	serveRunLimit = 60 * time.Second
)

// serveInput is the generated deployment: ontology and crowd text, the
// four queries, and what each must answer.
type serveInput struct {
	ontology, crowd []byte
	names, queries  []string
	want            map[string][]string // reference /results answers
	storeMax        int
	seed            int64 // engine seed and member seed base
}

// generateServe builds the deployment for one workload seed. The domain
// instance is fixed, as on domain-mine; the seed picks the engine and
// member seeds, and with them which questions each run asks.
func generateServe(seed int64) (*serveInput, error) {
	in, err := generateDomain(synth.SelfTreatment(domainMembers, 1))
	if err != nil {
		return nil, err
	}
	const base = "WITH SUPPORT = 0.2"
	if !strings.Contains(in.query, base) {
		return nil, fmt.Errorf("self-treatment query lacks %q:\n%s", base, in.query)
	}
	s := &serveInput{ontology: in.ontology, crowd: in.crowd, want: make(map[string][]string), seed: seed}
	for _, th := range serveThresholds {
		s.names = append(s.names, "theta-"+th)
		s.queries = append(s.queries, strings.Replace(in.query, base, "WITH SUPPORT = "+th, 1))
	}

	// Reference: the same inputs mined in process through one unbounded
	// store. It fixes each query's expected answers and counts the
	// distinct questions the store must hold to never re-ask.
	v, store, err := oassis.LoadOntology(bytes.NewReader(s.ontology))
	if err != nil {
		return nil, err
	}
	sims, err := oassis.LoadCrowdSim(bytes.NewReader(s.crowd), v, s.seed)
	if err != nil {
		return nil, err
	}
	members := make([]oassis.Member, len(sims))
	for i, m := range sims {
		members[i] = m
	}
	p := oassis.NewPlatform(oassis.PlatformConfig{})
	for i, text := range s.queries {
		q, err := oassis.ParseQuery(text, v)
		if err != nil {
			return nil, err
		}
		var answers []string
		var sess *oassis.Session
		sess, err = oassis.NewSession(store, q, oassis.WithSeed(s.seed), oassis.WithPlatform(p),
			oassis.WithOnMSP(func(a *oassis.Assignment) {
				answers = append(answers, sess.DescribeAnswer(sess.FactSets([]*oassis.Assignment{a})[0]))
			}))
		if err != nil {
			return nil, err
		}
		if _, err := sess.Run(members); err != nil {
			return nil, err
		}
		if len(answers) == 0 {
			return nil, fmt.Errorf("reference run of %s found no answer", s.names[i])
		}
		sort.Strings(answers)
		s.want[s.names[i]] = answers
	}
	s.storeMax = int(serveStoreShare * float64(p.Stats().Entries))
	return s, nil
}

// serveRig is one deployed platform with its crowd joined.
type serveRig struct {
	srv      *server.Server
	ts       *httptest.Server
	obsv     *oassis.Observer
	platform *oassis.Platform
	store    *oassis.Ontology
	v        *oassis.Vocabulary
	members  []*oassis.SimMember
	firstMSP atomic.Int64 // unix ns of the current run's first MSP, 0 = none yet
	parse    []float64    // µs per query parse
	session  []float64    // ms per NewSession
	onto     time.Duration
	facts    int
}

func deployServe(in *serveInput) (*serveRig, error) {
	r := &serveRig{}
	t0 := time.Now()
	v, store, err := oassis.LoadOntology(bytes.NewReader(in.ontology))
	if err != nil {
		return nil, err
	}
	r.onto, r.facts, r.v, r.store = time.Since(t0), store.Size(), v, store
	if r.members, err = oassis.LoadCrowdSim(bytes.NewReader(in.crowd), v, in.seed); err != nil {
		return nil, err
	}
	r.obsv = oassis.NewObserver()
	r.obsv.EnableJournal(0)
	r.platform = oassis.NewPlatform(oassis.PlatformConfig{MaxEntries: in.storeMax, Obs: r.obsv})
	r.srv = server.New(server.Config{MinMembers: len(r.members), AnswerTimeout: 5 * time.Minute, Obs: r.obsv})
	for i, text := range in.queries {
		t1 := time.Now()
		q, err := oassis.ParseQuery(text, v)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		var sess *oassis.Session
		sess, err = oassis.NewSession(store, q,
			oassis.WithSeed(in.seed),
			oassis.WithObserver(r.obsv),
			oassis.WithPlatform(r.platform),
			oassis.WithOnMSP(func(a *oassis.Assignment) {
				r.firstMSP.CompareAndSwap(0, time.Now().UnixNano())
				r.srv.RecordAnswer(sess.DescribeAnswer(sess.FactSets([]*oassis.Assignment{a})[0]))
			}))
		if err != nil {
			return nil, err
		}
		r.parse = append(r.parse, us(t2.Sub(t1)))
		r.session = append(r.session, ms(time.Since(t2)))
		r.srv.AttachNamed(in.names[i], sess)
	}
	r.ts = httptest.NewServer(r.srv.Handler())
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	for _, m := range r.members {
		if code, body, err := call(c, "POST", r.ts.URL+"/join?member="+url.QueryEscape(m.ID()), nil); err != nil || code != http.StatusOK {
			r.ts.Close()
			return nil, fmt.Errorf("join %s: %d %s %v", m.ID(), code, body, err)
		}
	}
	return r, nil
}

// newHTTPClient returns a client that keeps one connection alive.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// call performs one request and reads the whole response.
func call(c *http.Client, method, u string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// wireQuestion is the GET /question payload.
type wireQuestion struct {
	ID      int64    `json:"id"`
	Kind    string   `json:"kind"`
	Text    string   `json:"text"`
	Options []string `json:"options"`
}

// wireAnswer is the POST /answer payload.
type wireAnswer struct {
	Member   string  `json:"member"`
	Question int64   `json:"question"`
	Support  float64 `json:"support"`
	Choice   int     `json:"choice"`
}

// answerer turns rendered questions back into fact-sets, as a member
// reading the question would, and answers from the member's database.
// Each client goroutine owns one.
type answerer struct {
	v     *oassis.Vocabulary
	facts map[string]oassis.FactSet
}

// factSet parses "How often do you take A for B and also take C for D?".
func (a *answerer) factSet(text string) (oassis.FactSet, error) {
	if fs, ok := a.facts[text]; ok {
		return fs, nil
	}
	body := strings.TrimSuffix(strings.TrimPrefix(text, "How often do you "), "?")
	var facts []oassis.Fact
	for _, part := range strings.Split(body, " and also ") {
		part = strings.TrimPrefix(part, "take ")
		i := strings.LastIndex(part, " for ")
		if i < 0 {
			return nil, fmt.Errorf("cannot read question %q", text)
		}
		f, err := oassis.ParseFact(`"`+part[:i]+`" takenFor "`+part[i+len(" for "):]+`"`, a.v)
		if err != nil {
			return nil, fmt.Errorf("question %q: %w", text, err)
		}
		facts = append(facts, f)
	}
	fs := oassis.NewFactSet(facts...)
	a.facts[text] = fs
	return fs, nil
}

func (a *answerer) answer(m *oassis.SimMember, q *wireQuestion) (wireAnswer, error) {
	ans := wireAnswer{Member: m.ID(), Question: q.ID, Choice: -1}
	if q.Kind == "specialization" {
		cands := make([]oassis.FactSet, len(q.Options))
		for i, o := range q.Options {
			fs, err := a.factSet(o)
			if err != nil {
				return ans, err
			}
			cands[i] = fs
		}
		// A simulated member picks among the options alone; the base
		// pattern the question refines does not enter its choice.
		choice, resp := m.AskSpecialize(nil, cands)
		ans.Choice, ans.Support = choice, resp.Support
		return ans, nil
	}
	fs, err := a.factSet(q.Text)
	if err != nil {
		return ans, err
	}
	ans.Support = m.AskConcrete(fs).Support
	return ans, nil
}

// clientStats is what one client goroutine collected during one run.
type clientStats struct {
	lat, served []float64 // POST /answer and question-serving GET /question, ms
	polls, errs int
}

// servePhase is what one measured phase of serve-http collected.
type servePhase struct {
	lat, polls, runMS, firstMSP []float64
	pollsTotal, pollsHit        int
	wall                        time.Duration
	runs, questions, rounds     int
	errs                        int // requests that failed
	badOps                      int // answers of runs whose /results were wrong
}

func runServeHTTP(opt options) (*outcome, error) {
	out := newOutcome()
	genStart := time.Now()
	in, err := generateServe(opt.seed)
	if err != nil {
		return nil, err
	}
	out.set("bench.generate_s", time.Since(genStart).Seconds(), 1)

	var setups, loads, parses, sessions []float64
	var rig *serveRig
	facts := 0
	for rep := 0; rep < serveSetups; rep++ {
		if rig != nil {
			rig.ts.Close()
			rig = nil
		}
		t0 := time.Now()
		if rig, err = deployServe(in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, rig.onto.Seconds())
		parses = append(parses, rig.parse...)
		sessions = append(sessions, rig.session...)
		facts = rig.facts
	}
	defer rig.ts.Close()
	out.set("setup_s", median(setups), len(setups))
	out.set("ontology.load_s", median(loads), len(loads))
	out.set("ontology.triples_per_s", float64(facts)/median(loads), len(loads))
	out.pct("oassisql.parse_us_p50", parses, 0.5)
	out.pct("oassis.new_session_ms_p50", sessions, 0.5)

	workers := runtime.GOMAXPROCS(0)
	base := rig.ts.URL
	ctl := newHTTPClient()
	defer ctl.CloseIdleConnections()
	clients := make([]*http.Client, workers)
	answerers := make([]*answerer, workers)
	for w := range clients {
		clients[w] = newHTTPClient()
		defer clients[w].CloseIdleConnections()
		answerers[w] = &answerer{v: rig.v, facts: make(map[string]oassis.FactSet)}
	}
	var opID atomic.Int64
	runNo := 0

	// serveMembers answers for members[w::workers] until the run is over
	// or its deadline passes. A failed request or an unreadable question
	// counts as a failed op; the client answers "never" in the latter case
	// so the run can finish, and the run's /results check sees the rest.
	serveMembers := func(cs *clientStats, rec *recorder, w int, deadline time.Time) {
		c, a := clients[w], answerers[w]
		for time.Now().Before(deadline) {
			found := 0
			for i := w; i < len(rig.members); i += workers {
				m := rig.members[i]
				t0 := time.Now()
				code, body, err := call(c, "GET", base+"/question?member="+url.QueryEscape(m.ID()), nil)
				cs.polls++
				switch {
				case err != nil:
					cs.errs++
					continue
				case code == http.StatusGone:
					return
				case code == http.StatusNotFound:
					continue
				case code != http.StatusOK:
					cs.errs++
					continue
				}
				cs.served = append(cs.served, ms(time.Since(t0)))
				found++
				var q wireQuestion
				if err := json.Unmarshal(body, &q); err != nil {
					cs.errs++
					continue
				}
				ans, err := a.answer(m, &q)
				if err != nil {
					cs.errs++
					ans = wireAnswer{Member: m.ID(), Question: q.ID, Choice: -1}
				}
				tr := rec.begin(opID.Add(1), m.ID())
				s0 := time.Now()
				payload, _ := json.Marshal(ans)
				sp := tr.start("server.answer", 0)
				code, _, err = call(c, "POST", base+"/answer", payload)
				tr.stop(sp)
				d := time.Since(s0)
				tr.finish()
				if err != nil || code != http.StatusOK {
					cs.errs++
				} else {
					cs.lat = append(cs.lat, ms(d))
				}
			}
			if found == 0 {
				// Yield rather than sleep: on a VM a sleeping client lets
				// its vCPU halt, and waking it took long enough, on a
				// loaded host, to halve the answer rate.
				runtime.Gosched()
			}
		}
	}

	measure := func(d time.Duration, rec *recorder) (*servePhase, error) {
		p := &servePhase{}
		start := time.Now()
		for time.Since(start) < d || len(p.lat) < minOps {
			name := in.names[runNo%len(in.names)]
			runNo++
			rig.firstMSP.Store(0)
			runStart := time.Now()
			code, body, err := call(ctl, "POST", base+"/start?query="+url.QueryEscape(name), nil)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("start %s: %d %s %v", name, code, body, err)
			}
			opsBefore := len(p.lat)
			stats := make([]clientStats, workers)
			deadline := runStart.Add(serveRunLimit)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					serveMembers(&stats[w], rec, w, deadline)
				}(w)
			}
			wg.Wait()
			runDur := time.Since(runStart)
			for _, cs := range stats {
				p.lat = append(p.lat, cs.lat...)
				p.polls = append(p.polls, cs.served...)
				p.pollsTotal += cs.polls
				p.pollsHit += len(cs.served)
				p.errs += cs.errs
			}
			res := rig.srv.Result()
			if res == nil {
				return nil, fmt.Errorf("run %d of %s did not finish within %v", runNo, name, serveRunLimit)
			}
			p.runs++
			p.runMS = append(p.runMS, ms(runDur))
			if f := rig.firstMSP.Load(); f != 0 {
				p.firstMSP = append(p.firstMSP, ms(time.Unix(0, f).Sub(runStart)))
			}
			p.questions += res.Stats.Questions
			p.rounds += res.Stats.Rounds
			// Correctness: /results of each query is the reference answer
			// set on every run, whether its answers came from the store
			// or from members over HTTP.
			code, body, err = call(ctl, "GET", base+"/results", nil)
			var got struct {
				Done    bool     `json:"done"`
				Answers []string `json:"answers"`
				Error   string   `json:"error"`
			}
			if err == nil && code == http.StatusOK {
				err = json.Unmarshal(body, &got)
			}
			if err != nil || code != http.StatusOK || !got.Done || got.Error != "" ||
				strings.Join(got.Answers, "\n") != strings.Join(in.want[name], "\n") {
				// Every answer of a run whose result is wrong counts as failed.
				p.badOps += len(p.lat) - opsBefore
				out.note("run %d of %s: /results differ from the reference (%d vs %d answers, err %v %s)",
					runNo, name, len(got.Answers), len(in.want[name]), err, got.Error)
			}
		}
		p.wall = time.Since(start)
		return p, nil
	}

	st0 := rig.platform.Stats()
	j0 := rig.obsv.JournalSet().Total()
	untraced, traced := opt.phases()
	pu, err := measure(untraced, nil)
	if err != nil {
		return nil, err
	}
	out.set("heap_mb", heapMB(), 1)
	out.opFigures(pu.lat, len(pu.lat), pu.wall)
	out.attempted += len(pu.lat) + pu.errs
	out.failed += pu.errs + pu.badOps
	p := pu
	if opt.trace {
		rec := newRecorder()
		st0 = rig.platform.Stats()
		j0 = rig.obsv.JournalSet().Total()
		if p, err = measure(traced, rec); err != nil {
			return nil, err
		}
		out.attempted += len(p.lat) + p.errs
		out.failed += p.errs + p.badOps
		out.traceFigures(rec, pu.lat, p.lat)
	}
	st1 := rig.platform.Stats()
	ops := len(p.lat)
	out.set("questions_per_s", float64(p.questions)/p.wall.Seconds(), p.runs)
	out.share("questions_per_op", ratio{Num: float64(ops), Base: float64(p.runs)}, 1)
	out.pct("first_msp_p50_ms", p.firstMSP, 0.5)
	out.share("core.rounds_per_op", ratio{Num: float64(p.rounds), Base: float64(ops)}, 1)
	out.share("platform.hit_ratio", ratio{Num: float64(st1.Hits - st0.Hits),
		Base: float64(st1.Hits - st0.Hits + st1.Misses - st0.Misses + st1.Joins - st0.Joins)}, 1)
	out.share("platform.evicted_per_op", ratio{Num: float64(st1.Evicted - st0.Evicted), Base: float64(ops)}, 1)
	out.set("platform.entries", float64(st1.Entries), 1)
	out.pct("server.question_ms_p50", p.polls, 0.5)
	out.share("server.poll_hit_ratio", ratio{Num: float64(p.pollsHit), Base: float64(p.pollsTotal)}, 1)
	out.pct("server.run_ms_p50", p.runMS, 0.5)
	out.share("obs.journal_events_per_op", ratio{Num: float64(rig.obsv.JournalSet().Total() - j0), Base: float64(ops)}, 1)
	// The four sessions share one store, so the plan cache compiles the
	// query's WHERE once per deployment.
	h, m, e := planCacheStats(rig.store)
	out.share("sparql.plan_cache_hit_ratio", ratio{Num: float64(h), Base: float64(h + m)}, 1)
	out.set("sparql.plan_cache_entries", float64(e), 1)
	return out, nil
}
