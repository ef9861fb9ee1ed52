package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/serve"
	"ssdtrain/internal/units"
)

// explore is what-if exploration as cmd/reproduce and Fig 7 do it: a
// stream of model shapes, each compiled and executed once at the default
// 2 warmup + 3 measured steps on a fresh arena. About half the points
// repeat a recent config, so the plan cache's hit path runs beside its
// miss path.
type explore struct {
	gen     *exploreGen
	points  int
	samples []sampled
	model   modelStats
}

// sampled is a measured point kept for the correctness check.
type sampled struct {
	cfg  exp.RunConfig
	body []byte
}

const (
	// exploreRepeat is the share of points that repeat a recent config.
	exploreRepeat = 0.5
	// exploreWindow bounds the recent configs a repeat draws from; it
	// stays well under the plan cache's 256 entries so repeats hit.
	exploreWindow = 64
	// exploreAblation is the share of offloading points that switch off
	// forwarding, dedup or GDS.
	exploreAblation = 0.25
	// modelPoints is how many leading points feed the modelled statistics
	// and the result digest; the same seed gives the same leading points,
	// so these repeat exactly from run to run.
	modelPoints = 32
	// sampleEvery keeps every n-th later point for the re-execution check.
	sampleEvery = 64
	// exploreWarmPoints are run in set-up from a stream of fixed seed, so
	// set-up does the same work whatever the workload seed.
	exploreWarmPoints = 256
	warmSeed          = 0
)

var exploreStrategies = []exp.Strategy{exp.NoOffload, exp.SSDTrain, exp.Recompute, exp.CPUOffload, exp.HybridOffload, exp.OptimOffload}

// exploreGen draws the explore workload's config stream from a seed.
type exploreGen struct {
	rng    *rand.Rand
	recent []exp.RunConfig
}

func newExploreGen(seed int64) *exploreGen {
	return &exploreGen{rng: rand.New(rand.NewPCG(uint64(seed), 0xe4b1))}
}

func (g *exploreGen) next() exp.RunConfig {
	if len(g.recent) > 0 && g.rng.Float64() < exploreRepeat {
		return g.recent[g.rng.IntN(len(g.recent))]
	}
	cfg := g.fresh()
	if len(g.recent) == exploreWindow {
		g.recent = append(g.recent[:0], g.recent[1:]...)
	}
	g.recent = append(g.recent, cfg)
	return cfg
}

// fresh draws a config over the paper's architectures and (hidden,
// layers) geometries, batch 1-16 and all six strategies.
func (g *exploreGen) fresh() exp.RunConfig {
	archs := []models.Arch{models.GPT, models.BERT, models.T5}
	geoms := models.Fig6Geometries()
	geom := geoms[g.rng.IntN(len(geoms))]
	cfg := exp.RunConfig{
		Model:    models.PaperConfig(archs[g.rng.IntN(len(archs))], geom[0], geom[1], 1+g.rng.IntN(16)),
		Strategy: exploreStrategies[g.rng.IntN(len(exploreStrategies))],
	}
	switch cfg.Strategy {
	case exp.HybridOffload:
		cfg.DRAMCapacity = units.Bytes(4+4*g.rng.IntN(8)) * units.GiB
	case exp.OptimOffload:
		cfg.OptimKind = []string{"adam", "sgd"}[g.rng.IntN(2)]
		cfg.Schedule = []string{exp.ScheduleSync, exp.ScheduleOverlap}[g.rng.IntN(2)]
		cfg.DRAMCapacity = units.Bytes(16+16*g.rng.IntN(4)) * units.GiB
	}
	switch cfg.Strategy {
	case exp.SSDTrain, exp.CPUOffload, exp.HybridOffload:
		if g.rng.Float64() < exploreAblation {
			switch g.rng.IntN(3) {
			case 0:
				cfg.NoForwarding = true
			case 1:
				cfg.NoDedup = true
			default:
				cfg.DisableGDS = true
			}
		}
	}
	return cfg
}

// goldens are the figure tables explore's set-up regenerates and pins.
var goldens = []struct {
	file   string
	render func() (string, error)
}{
	{"fig6.golden", func() (string, error) {
		rows, err := exp.Fig6(16)
		if err != nil {
			return "", err
		}
		return exp.Fig6Table(rows).String(), nil
	}},
	{"table3.golden", func() (string, error) {
		rows, err := exp.Table3()
		if err != nil {
			return "", err
		}
		return exp.Table3Table(rows).String(), nil
	}},
}

// setup regenerates Fig 6 and Table III, as cmd/reproduce does before any
// exploration, checks them against the committed goldens, and runs a
// warm-up stream of points.
func (e *explore) setup(seed int64) error {
	e.gen = newExploreGen(seed)
	for _, g := range goldens {
		got, err := g.render()
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join("internal", "exp", "testdata", g.file))
		if err != nil {
			return err
		}
		if got != string(want) {
			return fmt.Errorf("%s: regenerated table differs from the committed golden", g.file)
		}
	}
	warm := newExploreGen(warmSeed)
	for i := 0; i < exploreWarmPoints; i++ {
		if _, err := exp.Run(warm.next()); err != nil {
			return fmt.Errorf("warm-up point %d: %w", i, err)
		}
	}
	return nil
}

// runPoint compiles, builds an arena for and executes one config, each
// call timed as its own layer.
func runPoint(p *phase, cfg exp.RunConfig) (*exp.RunResult, error) {
	var plan *exp.Plan
	var sess *exp.Session
	var res *exp.RunResult
	err := p.rec.call("compile", p.rootID, func(int64) (err error) {
		plan, err = exp.Compile(cfg)
		return err
	})
	if err == nil {
		err = p.rec.call("session.build", p.rootID, func(int64) (err error) {
			sess, err = exp.NewSession(plan)
			return err
		})
	}
	if err == nil {
		err = p.rec.call("execute", p.rootID, func(int64) (err error) {
			res, err = sess.Execute(cfg)
			return err
		})
	}
	return res, err
}

func (e *explore) measure(p *phase, deadline time.Time) error {
	for !deadlineReached(p, deadline) {
		cfg := e.gen.next()
		start := time.Now()
		res, err := runPoint(p, cfg)
		p.op(time.Since(start), 1, err)
		if err != nil {
			p.note("point %d (%s %s): %v", e.points, cfg.Model, cfg.Strategy, err)
			continue
		}
		p.simulated(res)
		e.keep(p, cfg, res)
	}
	return nil
}

// keep feeds the leading points into the modelled statistics and keeps
// those and every sampleEvery-th later point for the check.
func (e *explore) keep(p *phase, cfg exp.RunConfig, res *exp.RunResult) {
	i := e.points
	e.points++
	if i >= modelPoints && i%sampleEvery != 0 {
		return
	}
	body := render(p, res)
	if i < modelPoints {
		e.model.add(res, body)
	}
	e.samples = append(e.samples, sampled{cfg: cfg, body: body})
}

// check re-runs every kept point through a fresh exp.Run and requires the
// rendered result to match byte for byte.
func (e *explore) check() error {
	for i, s := range e.samples {
		res, err := exp.Run(s.cfg)
		if err != nil {
			return fmt.Errorf("sample %d: fresh run: %w", i, err)
		}
		if !bytes.Equal(serve.RenderPlanResult(res), s.body) {
			return fmt.Errorf("sample %d (%s %s): measured result differs from a fresh run", i, s.cfg.Model, s.cfg.Strategy)
		}
	}
	return nil
}

// render renders a result to its /v1/plan body as a timed call into the
// serve layer.
func render(p *phase, res *exp.RunResult) []byte {
	var body []byte
	p.rec.call("render", p.rootID, func(int64) error {
		body = serve.RenderPlanResult(res)
		return nil
	})
	return body
}

func (e *explore) layerMetrics(m metricSet, p *phase) {
	e.model.report(m)
}

func (e *explore) close() {}

// modelStats sums simulated (not host) statistics over a fixed set of
// results. A change that only speeds up the simulator must leave every
// one of them identical.
type modelStats struct {
	offloaded                          units.Bytes
	forwardHits, dedupHits, demandLoad int64
	digest                             uint64
	n                                  int
}

func (s *modelStats) add(res *exp.RunResult, body []byte) {
	for _, t := range res.Tiers {
		s.offloaded += t.Written
	}
	if c := res.Counters; c != nil {
		s.forwardHits += c.Get("cache.forward_hits")
		s.dedupHits += c.Get("cache.dedup_hits")
		s.demandLoad += c.Get("cache.demand_loads")
	}
	s.addBody(body)
}

// addBody folds a rendered result into the digest.
func (s *modelStats) addBody(body []byte) {
	h := fnv.New64a()
	var prev [8]byte
	for i := range prev {
		prev[i] = byte(s.digest >> (8 * i))
	}
	h.Write(prev[:])
	h.Write(body)
	s.digest = h.Sum64()
	s.n++
}

func (s *modelStats) report(m metricSet) {
	m.set("model.offloaded_gb", "GB", float64(s.offloaded)/1e9)
	m.set("model.cache.forward_hits", "count", float64(s.forwardHits))
	m.set("model.cache.dedup_hits", "count", float64(s.dedupHits))
	m.set("model.cache.demand_loads", "count", float64(s.demandLoad))
	// 52 bits, so the JSON number holds the digest exactly.
	m.set("model.result_digest", "hash", float64(s.digest&(1<<52-1)))
	m.set("model.results", "count", float64(s.n))
}
