package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/serve"
)

// planService drives an in-process serve.Server over loopback HTTP with
// an open loop of seeded arrivals at a fixed offered rate: a hot set of
// repeated /v1/plan bodies (result-cache reads), a cold tail of new
// configs (simulate, render, insert), small bursts of identical
// concurrent requests (singleflight) and a share of /v1/sweep calls. It
// is the only workload through HTTP decode, the limiter, the batcher,
// the result LRU and render, with the read and write paths side by side.
type planService struct {
	opts   options
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	gen    *arrivalGen
	// cur is the running phase's recorder, for the server-side spans.
	cur atomic.Pointer[recorder]

	mu       sync.Mutex
	outcomes []outcome
	lags     []float64

	before, after serve.Metrics
	expected      map[*request][32]byte
	model         modelStats
	modelSeen     int
	mismatches    int
}

const (
	// offeredRate is the open loop's mean arrivals per second (about 460
	// requests per second with bursts counted). README.md relates it to
	// the service's measured capacity.
	offeredRate = 400.0
	hotSetSize  = 32
	// Arrival mix: hot plan, cold plan, burst of identical cold plans,
	// sweep; the shares sum to 1. They are chosen, not observed: README.md
	// says why.
	hotShare   = 0.80
	coldShare  = 0.10
	burstShare = 0.05
	burstSize  = 4
	// maxInFlight bounds the generator's request goroutines; an arrival
	// that finds it full is dropped and counted as failed.
	maxInFlight = 256
	// spanHeader carries the client span's ID to the server-side span.
	spanHeader = "X-Perfbench-Span"
)

// serviceModels are the plan shapes requests draw from: few enough that
// cold configs reuse compiled plans and pooled arenas, as a planning
// service's traffic mostly does.
var serviceModels = []serve.ModelSpec{
	{Arch: "bert", Hidden: 8192, Layers: 4, Batch: 16},
	{Arch: "gpt", Hidden: 12288, Layers: 3, Batch: 8},
	{Arch: "t5", Hidden: 16384, Layers: 2, Batch: 8},
	{Arch: "gpt", Hidden: 8192, Layers: 4, Batch: 4},
}

// request is one HTTP request body with the config(s) it asks for.
type request struct {
	path string
	body []byte
	plan *serve.PlanRequest
	// sweep lists the per-point requests of a /v1/sweep body, in stream
	// order.
	sweep []serve.PlanRequest
}

// arrival is one scheduled send: the gap since the previous arrival and
// the requests sent at once (more than one for a burst).
type arrival struct {
	gap  time.Duration
	reqs []*request
}

type outcome struct {
	// seq is the request's place in the arrival stream.
	seq    int
	req    *request
	status int
	sum    [32]byte
	lat    time.Duration
	err    error
}

// arrivalGen draws the plan-service arrival stream from a seed.
type arrivalGen struct {
	rng *rand.Rand
	hot []*request
}

// newArrivalGen draws the arrival stream from seed. The hot set comes
// from warmSeed, so set-up renders the same bodies whatever the seed.
func newArrivalGen(seed int64) *arrivalGen {
	g := &arrivalGen{rng: rand.New(rand.NewPCG(uint64(warmSeed), 0x407))}
	strategies := []string{"ssdtrain", "hybrid", "cpu-offload", "optim-offload"}
	for i := 0; i < hotSetSize; i++ {
		pr := serve.PlanRequest{
			Model:    serviceModels[i%len(serviceModels)],
			Strategy: strategies[i/len(serviceModels)%len(strategies)],
		}
		if pr.Strategy != "cpu-offload" {
			pr.SSDBandwidthShare = g.share()
		}
		g.hot = append(g.hot, planRequest(pr))
	}
	g.rng = rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	return g
}

// share draws a bandwidth share in [0.05, 1] at a resolution fine enough
// that cold draws practically never repeat.
func (g *arrivalGen) share() float64 {
	return math.Round((0.05+0.95*g.rng.Float64())*1e6) / 1e6
}

// cold draws a config the server has not seen: a known shape with new
// cheap-knob values.
func (g *arrivalGen) cold() serve.PlanRequest {
	pr := serve.PlanRequest{
		Model:             serviceModels[g.rng.IntN(len(serviceModels))],
		Strategy:          "ssdtrain",
		SSDBandwidthShare: g.share(),
	}
	if g.rng.IntN(2) == 1 {
		pr.Strategy = "hybrid"
		pr.DRAMCapacityBytes = int64(4+g.rng.IntN(29)) << 30
	}
	return pr
}

func (g *arrivalGen) next() arrival {
	a := arrival{gap: time.Duration(g.rng.ExpFloat64() / offeredRate * float64(time.Second))}
	switch x := g.rng.Float64(); {
	case x < hotShare:
		a.reqs = []*request{g.hot[g.rng.IntN(len(g.hot))]}
	case x < hotShare+coldShare:
		a.reqs = []*request{planRequest(g.cold())}
	case x < hotShare+coldShare+burstShare:
		r := planRequest(g.cold())
		for i := 0; i < burstSize; i++ {
			a.reqs = append(a.reqs, r)
		}
	default:
		// Two shares every sweep of a model asks for (cached after the
		// first) and two new ones.
		base := serve.PlanRequest{Model: serviceModels[g.rng.IntN(len(serviceModels))], Strategy: "ssdtrain"}
		shares := []float64{0.25, 0.5, g.share(), g.share()}
		a.reqs = []*request{sweepRequest(base, shares)}
	}
	return a
}

func planRequest(pr serve.PlanRequest) *request {
	blob, err := json.Marshal(pr)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return &request{path: "/v1/plan", body: blob, plan: &pr}
}

func sweepRequest(base serve.PlanRequest, shares []float64) *request {
	blob, err := json.Marshal(serve.SweepRequest{Base: base, Shares: shares})
	if err != nil {
		panic(err)
	}
	r := &request{path: "/v1/sweep", body: blob}
	for _, sh := range shares {
		pt := base
		pt.SSDBandwidthShare = sh
		r.sweep = append(r.sweep, pt)
	}
	return r
}

func newPlanService(o options) *planService { return &planService{opts: o} }

// setup starts the server on a loopback listener and renders the hot set
// through it, so the timed region starts with the hot set cached.
func (s *planService) setup(seed int64) error {
	s.gen = newArrivalGen(seed)
	s.expected = map[*request][32]byte{}
	s.srv = serve.New(serve.Options{Workers: procs})
	inner := s.srv.Handler()
	s.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.cur.Load()
		if rec == nil {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		rec.call("serve.handler", parent, func(int64) error {
			inner.ServeHTTP(w, r)
			return nil
		})
	}))
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     procs,
		MaxIdleConnsPerHost: procs,
		DisableCompression:  true,
	}}
	for _, r := range s.gen.hot {
		status, _, err := s.send(r, 0)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("hot set: %s answered %d", r.body, status)
		}
	}
	return nil
}

// send posts one request and returns its status and the body's digest.
func (s *planService) send(r *request, span int64) (int, [32]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.hs.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, [32]byte{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, [32]byte{}, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return resp.StatusCode, [32]byte{}, err
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return resp.StatusCode, sum, nil
}

// measure sends every arrival at its due time whatever the backlog, each
// on its own goroutine, and times each request from its due time.
func (s *planService) measure(p *phase, deadline time.Time) error {
	s.cur.Store(p.rec)
	defer s.cur.Store(nil)
	s.outcomes, s.lags = nil, nil
	s.before = s.srv.Metrics()
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	due := time.Now()
	for sent := 0; sent < p.minOps || due.Before(deadline); {
		a := s.gen.next()
		due = due.Add(a.gap)
		time.Sleep(time.Until(due))
		s.lags = append(s.lags, ms(time.Since(due)))
		for _, r := range a.reqs {
			seq := sent
			sent++
			select {
			case sem <- struct{}{}:
			default:
				s.record(outcome{seq: seq, req: r, err: fmt.Errorf("generator backlog above %d requests", maxInFlight)})
				continue
			}
			wg.Add(1)
			go func(r *request, due time.Time) {
				defer wg.Done()
				defer func() { <-sem }()
				o := outcome{seq: seq, req: r}
				p.rec.call("loadgen.request", p.rootID, func(id int64) error {
					o.status, o.sum, o.err = s.send(r, id)
					return o.err
				})
				o.lat = time.Since(due)
				s.record(o)
			}(r, due)
		}
	}
	wg.Wait()
	s.after = s.srv.Metrics()
	return nil
}

func (s *planService) record(o outcome) {
	s.mu.Lock()
	s.outcomes = append(s.outcomes, o)
	s.mu.Unlock()
}

// settle verifies every answered body against a fresh render of its
// config and records each request: a good request answered 200, with the
// expected body, within the latency limit. Anything else counts as
// failed, and a failed request also misses the limit: its latency counts
// as at least the limit.
func (s *planService) settle(p *phase) error {
	limit := time.Duration(s.opts.limitMs * float64(time.Millisecond))
	// Arrival order, so the modelled statistics fold the same bodies in
	// the same order on every run of a seed.
	sort.Slice(s.outcomes, func(i, j int) bool { return s.outcomes[i].seq < s.outcomes[j].seq })
	for _, o := range s.outcomes {
		err := o.err
		if err == nil && o.status != http.StatusOK {
			err = fmt.Errorf("status %d", o.status)
		}
		if err == nil {
			want, ferr := s.expect(p, o.req)
			if ferr != nil {
				return ferr
			}
			if want != o.sum {
				s.mismatches++
				err = fmt.Errorf("%s %s: body differs from a fresh render", o.req.path, o.req.body)
			}
		}
		good := 0.0
		if err == nil && o.lat <= limit {
			good = 1
		}
		lat := o.lat
		if err != nil {
			p.note("%v", err)
			lat = max(lat, limit)
		}
		p.op(lat, good, err)
	}
	return nil
}

// expect returns the digest of the body a request must be answered with,
// rendering fresh results for its config(s) once per request value.
func (s *planService) expect(p *phase, r *request) ([32]byte, error) {
	if sum, ok := s.expected[r]; ok {
		return sum, nil
	}
	pts := r.sweep
	if r.plan != nil {
		pts = []serve.PlanRequest{*r.plan}
	}
	h := sha256.New()
	for _, pr := range pts {
		cfg, err := pr.RunConfig()
		if err != nil {
			return [32]byte{}, err
		}
		res, err := exp.Run(cfg)
		if err != nil {
			return [32]byte{}, fmt.Errorf("fresh run of %s: %w", r.body, err)
		}
		start := time.Now()
		body := serve.RenderPlanResult(res)
		p.rec.clock.add("render", time.Since(start))
		h.Write(body)
		if r.plan != nil && s.modelSeen < modelPoints {
			s.modelSeen++
			s.model.add(res, body)
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	s.expected[r] = sum
	return sum, nil
}

func (s *planService) check() error {
	if s.mismatches > 0 {
		return fmt.Errorf("%d answered bodies differ from a fresh render of their config", s.mismatches)
	}
	return nil
}

func (s *planService) layerMetrics(m metricSet, p *phase) {
	b, a := s.before, s.after
	plan := a.Endpoints["plan"]
	m.set("serve.plan_us_p50", "us", float64(plan.P50Us))
	m.set("serve.plan_us_p99", "us", float64(plan.P99Us))
	hits, misses := a.ResultCache.Hits-b.ResultCache.Hits, a.ResultCache.Misses-b.ResultCache.Misses
	m.set("serve.result_cache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	m.set("serve.coalesced", "count", float64(a.CoalescedRequests-b.CoalescedRequests))
	m.set("serve.batch.mean_size", "count", ratio(float64(a.Batch.BatchedRequests-b.Batch.BatchedRequests), float64(a.Batch.Flushes-b.Batch.Flushes)))
	m.set("serve.rejected", "count", float64(a.RejectedRequests-b.RejectedRequests+a.RejectedDeadline-b.RejectedDeadline))
	sh, sm := a.Sessions.Hits-b.Sessions.Hits, a.Sessions.Misses-b.Sessions.Misses
	m.set("session_pool.hit_ratio", "ratio", ratio(float64(sh), float64(sh+sm)))
	m.set("loadgen.lag_ms_p99", "ms", quantile(s.lags, 0.99).Value)
	s.model.report(m)
}

func (s *planService) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
