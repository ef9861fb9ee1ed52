package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/models"
	"ssdtrain/internal/serve"
	"ssdtrain/internal/units"
)

// longHorizon is the long-training sweep regime: bandwidth-share,
// DRAM-capacity and optimizer-schedule sweeps at 1k-20k steps on reused
// sessions. Each point simulates about two steps; the rest is the
// steady-state extrapolation plus the memory-timeline replay and peak
// attribution, whose cost grows with Steps.
type longHorizon struct {
	gen      *horizonGen
	shapes   []*horizonShape
	points   int
	model    modelStats
	fullSim  []fullSimCheck
	problems []string
}

// horizonFamily is one of the three sweeps the points come from.
type horizonFamily int

const (
	shareSweep horizonFamily = iota
	dramSweep
	optimSweep
	numFamilies
)

// horizonShape is one family's plan shape with its reused arena.
type horizonShape struct {
	base exp.RunConfig
	sess *exp.Session
	// scale is the byte volume the DRAM-capacity fractions multiply: the
	// eligible activation bytes (hybrid) or the optimizer's fully
	// resident working set (optim-offload).
	scale float64
}

// horizonBlock is the multiset of horizons each family draws once per
// block of points. Its shape keeps the median and the 90th percentile
// of per-point time inside a horizon class, away from the class edges,
// so the percentiles do not jump between seeds. It stops at 20k steps: a
// reused session keeps its largest run's buffers (about 7.6 KiB per
// step), so one 50k-step point per session would hold over 1 GiB across
// the three sessions.
var horizonBlock = func() []int {
	var b []int
	for _, c := range []struct{ steps, n int }{{1000, 5}, {2000, 3}, {5000, 5}, {10000, 3}, {20000, 4}} {
		for i := 0; i < c.n; i++ {
			b = append(b, c.steps)
		}
	}
	return b
}()

// horizonModel is the sweep model of every family: the BERT point the
// legacy steady, tier and optimizer benches sweep.
var horizonModel = models.PaperConfig(models.BERT, 8192, 4, 16)

// fullSimPoints is how many 1k-step points are re-run with the fast path
// off and compared step by step; a full simulation pays for every step,
// so only a few are.
const fullSimPoints = 3

type fullSimCheck struct {
	cfg exp.RunConfig
	res *exp.RunResult
}

// horizonPoint is one generated point: which shape, which knobs.
type horizonPoint struct {
	shape int
	cfg   exp.RunConfig
}

// horizonGen draws the long-horizon point stream from a seed.
type horizonGen struct {
	rng *rand.Rand
	// block is what is left of the current block: every family at every
	// horizon of horizonBlock, shuffled.
	block []blockEntry
}

type blockEntry struct {
	fam   horizonFamily
	steps int
}

func newHorizonGen(seed int64) *horizonGen {
	return &horizonGen{rng: rand.New(rand.NewPCG(uint64(seed), 0x10f6))}
}

// next returns the next point of the current block, starting a freshly
// shuffled block when it is used up; the knob values are drawn.
func (g *horizonGen) next(shapes []*horizonShape) horizonPoint {
	if len(g.block) == 0 {
		for fam := horizonFamily(0); fam < numFamilies; fam++ {
			for _, steps := range horizonBlock {
				g.block = append(g.block, blockEntry{fam, steps})
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	fam, steps := g.block[0].fam, g.block[0].steps
	g.block = g.block[1:]
	idx := int(fam)
	sh := shapes[idx]
	cfg := sh.base
	cfg.Steps = steps
	switch fam {
	case shareSweep:
		cfg.SSDBandwidthShare = []float64{0.125, 0.25, 0.5, 0.75, 1}[g.rng.IntN(5)]
	case dramSweep:
		cfg.DRAMCapacity = units.Bytes([]float64{0.125, 0.25, 0.5, 0.75, 1}[g.rng.IntN(5)] * sh.scale)
	case optimSweep:
		cfg.Schedule = []string{exp.ScheduleSync, exp.ScheduleOverlap}[g.rng.IntN(2)]
		cfg.DRAMCapacity = units.Bytes([]float64{0, 0.25, 0.5, 1}[g.rng.IntN(4)] * sh.scale)
	}
	return horizonPoint{shape: idx, cfg: cfg}
}

// horizonBase is the base config of one family's shape.
func horizonBase(fam horizonFamily) exp.RunConfig {
	cfg := exp.RunConfig{Model: horizonModel}
	switch fam {
	case shareSweep:
		cfg.Strategy = exp.SSDTrain
	case dramSweep:
		cfg.Strategy = exp.HybridOffload
		cfg.Placement = exp.PlacementDRAMFirst
		cfg.SSDBandwidthShare = 0.25
	case optimSweep:
		cfg.Strategy = exp.OptimOffload
		cfg.Placement = exp.PlacementDRAMFirst
	}
	return cfg
}

// setup compiles every shape, builds its arena and runs one point of the
// longest horizon on it: that grows the arena's buffers to the size the
// timed points reuse, and sizes the DRAM-capacity fractions.
func (l *longHorizon) setup(seed int64) error {
	l.gen = newHorizonGen(seed)
	l.shapes = nil
	for fam := horizonFamily(0); fam < numFamilies; fam++ {
		base := horizonBase(fam)
		plan, err := exp.Compile(base)
		if err != nil {
			return err
		}
		sess, err := exp.NewSession(plan)
		if err != nil {
			return err
		}
		probe := base
		probe.Steps = horizonBlock[len(horizonBlock)-1]
		if fam == optimSweep {
			probe.DRAMCapacity = 1 << 50 // holds any working set
		}
		res, err := sess.Execute(probe)
		if err != nil {
			return err
		}
		sh := &horizonShape{base: base, sess: sess, scale: float64(plan.EligibleBytes())}
		if fam == optimSweep {
			sh.scale = float64(res.Optim.DRAMResident)
		}
		l.shapes = append(l.shapes, sh)
	}
	return nil
}

// measure runs whole blocks, so every run weighs the families and
// horizons alike whatever the seed.
func (l *longHorizon) measure(p *phase, deadline time.Time) error {
	for len(l.gen.block) > 0 || !deadlineReached(p, deadline) {
		pt := l.gen.next(l.shapes)
		var res *exp.RunResult
		start := time.Now()
		err := p.rec.call("execute", p.rootID, func(int64) (err error) {
			res, err = l.shapes[pt.shape].sess.Execute(pt.cfg)
			return err
		})
		p.op(time.Since(start), 1, err)
		if err != nil {
			p.note("point %d (%s %s, %d steps): %v", l.points, pt.cfg.Model, pt.cfg.Strategy, pt.cfg.Steps, err)
			continue
		}
		ss := res.SteadyState
		p.simulated(res)
		if (ss.Fallback != "" || ss.ExtrapolatedSteps == 0) && len(l.problems) < 5 {
			l.problems = append(l.problems, fmt.Sprintf("point %d (%s %s, %d steps): steady state %+v", l.points, pt.cfg.Model, pt.cfg.Strategy, pt.cfg.Steps, ss))
		}
		l.keep(p, pt.cfg, res)
	}
	return nil
}

func (l *longHorizon) keep(p *phase, cfg exp.RunConfig, res *exp.RunResult) {
	i := l.points
	l.points++
	if i < modelPoints {
		l.model.add(res, render(p, res))
	}
	if cfg.Steps == 1000 && len(l.fullSim) < fullSimPoints {
		l.fullSim = append(l.fullSim, fullSimCheck{cfg: cfg, res: res})
	}
}

// check requires every point to have taken the fast path, and the kept
// 1k-step points to equal their full simulation step for step.
func (l *longHorizon) check() error {
	if len(l.problems) > 0 {
		return fmt.Errorf("steady-state fast path not taken: %v", l.problems)
	}
	if len(l.fullSim) == 0 {
		return fmt.Errorf("no 1k-step point to compare with full simulation")
	}
	for i, c := range l.fullSim {
		off := c.cfg
		off.SteadyState = "off"
		full, err := exp.Run(off)
		if err != nil {
			return fmt.Errorf("full simulation %d: %w", i, err)
		}
		// Rendering echoes the config; align the one knob that differs.
		full.Config.SteadyState = c.res.Config.SteadyState
		full.SteadyState = c.res.SteadyState
		if !bytes.Equal(serve.RenderPlanResult(full), serve.RenderPlanResult(c.res)) ||
			!reflect.DeepEqual(full.PerStep, c.res.PerStep) {
			return fmt.Errorf("1k-step point %d (%s %s) differs from its full simulation", i, c.cfg.Model, c.cfg.Strategy)
		}
	}
	return nil
}

func (l *longHorizon) layerMetrics(m metricSet, p *phase) {
	l.model.report(m)
}

func (l *longHorizon) close() {}
