package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"ssdtrain/internal/faults"
	"ssdtrain/internal/fleet"
)

// fleetMix is the cluster what-if: seeded 128-job mixes with hybrid and
// optimizer-offload tenants under a fixed fault plan, each profiled on a
// fresh fleet.Profiler and replayed under fifo, sjf and backfill sharing
// it. It is the only workload that reaches the fleet scheduler replay, the
// fault controller and the wear ledger. Every operation draws a new mix,
// so a run's figures average over mixes rather than hinge on one.
type fleetMix struct {
	cluster fleet.ClusterSpec
	plan    faults.Plan
	// mixSeeds draws the seed of each mix from the workload seed.
	mixSeeds *rand.Rand
	// kept are mixes whose rendered reports the check recomputes.
	kept  []keptMix
	mixes int
	model modelStats
	// profiler counters summed over a phase's mixes.
	hits, misses       int64
	poolHits, poolMiss int64
}

type keptMix struct {
	seed   int64
	render string
}

const (
	fleetJobs  = 128
	fleetNodes = 8
	// fleetFaults is the fault plan every policy replays: a member death
	// with rebuild steal, a degradation window and a temporary drain.
	fleetFaults = "death@10s:node0:dev1,degrade@15s:node1:0.5:30s,drain@25s:node2:2m,ckpt=25,penalty=10s"
	// fleetWarmMixes run in set-up; they fill the process-wide plan cache
	// with the palette's shapes. Their seeds are fixed, so set-up does the
	// same work whatever the workload seed.
	fleetWarmMixes = 2
	// fleetKept is how many timed mixes the check replays.
	fleetKept = 2
)

func (f *fleetMix) setup(seed int64) error {
	plan, err := faults.ParsePlan(fleetFaults)
	if err != nil {
		return err
	}
	f.plan = plan
	f.cluster = fleet.ClusterSpec{Nodes: fleetNodes, Node: fleet.DefaultNodeSpec()}
	f.mixSeeds = newMixSeeds(seed)
	warm := newMixSeeds(warmSeed)
	for i := 0; i < fleetWarmMixes; i++ {
		s := warm.Int64()
		reports, _, err := f.runMix(nil, fleetJobMix(s, plan))
		if err != nil {
			return err
		}
		f.kept = append(f.kept, keptMix{seed: s, render: fleet.RenderReports(reports)})
	}
	return nil
}

func newMixSeeds(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), 0xf1ee)) }

// fleetJobMix draws one 128-job mix: a quarter of the SSDTrain jobs
// become dram-first hybrid tenants and a quarter optimizer-offload
// tenants.
func fleetJobMix(seed int64, plan faults.Plan) []fleet.Job {
	return fleet.DefaultJobMix(fleet.MixConfig{
		Jobs: fleetJobs, Seed: seed, MaxGPUs: fleet.DefaultNodeSpec().GPUs,
		HybridFrac: 0.25, OptimFrac: 0.25, FaultPlan: plan,
	})
}

// runMix profiles the jobs on a fresh profiler and replays them under
// every policy; with p set, both calls are timed layers.
func (f *fleetMix) runMix(p *phase, jobs []fleet.Job) ([]*fleet.Report, *fleet.Profiler, error) {
	call := func(layer string, fn func() error) error {
		if p == nil {
			return fn()
		}
		return p.rec.call(layer, p.rootID, func(int64) error { return fn() })
	}
	prof := fleet.NewProfiler(0)
	err := call("fleet.prime", func() error { return prof.Prime(jobs, f.cluster.Node, procs) })
	if err != nil {
		return nil, nil, fmt.Errorf("prime: %w", err)
	}
	var reports []*fleet.Report
	err = call("fleet.replay", func() error {
		scenarios := make([]fleet.Scenario, 0, 3)
		for _, pol := range fleet.Policies() {
			scenarios = append(scenarios, fleet.Scenario{Name: string(pol), Config: fleet.Config{
				Cluster: f.cluster, Jobs: jobs, Policy: pol, Workers: procs,
				Profiler: prof, Faults: f.plan,
			}})
		}
		var err error
		reports, err = fleet.Sweep(scenarios, procs)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	return reports, prof, nil
}

func (f *fleetMix) measure(p *phase, deadline time.Time) error {
	f.hits, f.misses, f.poolHits, f.poolMiss = 0, 0, 0, 0
	for !deadlineReached(p, deadline) {
		seed := f.mixSeeds.Int64()
		jobs := fleetJobMix(seed, f.plan)
		start := time.Now()
		reports, prof, err := f.runMix(p, jobs)
		scheduled := 0
		for _, r := range reports {
			scheduled += r.JobCount
		}
		p.op(time.Since(start), float64(scheduled), err)
		if err != nil {
			p.note("mix %d (seed %d): %v", f.mixes, seed, err)
			continue
		}
		h, m := prof.CacheStats()
		f.hits += h
		f.misses += m
		ps := prof.PoolStats()
		f.poolHits += ps.Hits
		f.poolMiss += ps.Misses
		f.keep(p, seed, reports)
	}
	return nil
}

// keep renders the first timed mixes for the check and folds the first
// into the modelled statistics.
func (f *fleetMix) keep(p *phase, seed int64, reports []*fleet.Report) {
	i := f.mixes
	f.mixes++
	if i >= fleetKept {
		return
	}
	var got string
	p.rec.call("fleet.render", p.rootID, func(int64) error {
		got = fleet.RenderReports(reports)
		return nil
	})
	f.kept = append(f.kept, keptMix{seed: seed, render: got})
	if i == 0 {
		f.model.addBody([]byte(got))
		for _, r := range reports {
			f.model.offloaded += r.TotalWritten
		}
	}
}

// check replays every kept mix on a fresh profiler and requires the
// rendered reports to repeat byte for byte, and the fault plan to have
// fired.
func (f *fleetMix) check() error {
	for _, k := range f.kept {
		reports, _, err := f.runMix(nil, fleetJobMix(k.seed, f.plan))
		if err != nil {
			return fmt.Errorf("replaying mix seed %d: %w", k.seed, err)
		}
		if got := fleet.RenderReports(reports); got != k.render {
			return fmt.Errorf("mix seed %d: reports differ between repeats", k.seed)
		}
		deaths := 0
		for _, r := range reports {
			deaths += r.TotalDeaths
		}
		if deaths == 0 {
			return fmt.Errorf("mix seed %d: the fault plan never fired", k.seed)
		}
	}
	return nil
}

func (f *fleetMix) layerMetrics(m metricSet, p *phase) {
	_, prime := p.rec.clock.perCall("fleet.prime")
	_, replay := p.rec.clock.perCall("fleet.replay")
	m.set("fleet.prime_ms", "ms", prime)
	m.set("fleet.replay_ms", "ms", replay)
	m.set("fleet.profile_cache.hit_ratio", "ratio", ratio(float64(f.hits), float64(f.hits+f.misses)))
	m.set("session_pool.hit_ratio", "ratio", ratio(float64(f.poolHits), float64(f.poolHits+f.poolMiss)))
	f.model.report(m)
}

func (f *fleetMix) close() {}
