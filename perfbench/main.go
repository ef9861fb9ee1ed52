// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four seeded workloads in-process against the simulator's public
// packages, times its own calls into each layer from outside, reads the
// counters those layers already export, checks every output it measured,
// and prints one JSON result line.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it runs the workload twice (untraced, then traced with spans, pprof
// labels and a CPU profile) and carries the per-layer metrics. See
// README.md in this directory for what each workload and metric is for.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssdtrain/internal/exp"
	"ssdtrain/internal/sim"
)

// procs caps GOMAXPROCS, server workers, fleet workers and client
// connections alike, so results compare across hosts with more cores.
var procs = min(2, runtime.NumCPU())

// setupReps is how many cold set-ups each run times; setup_s is their
// median. All but the last run in child processes of the command, and
// the last is the run's own first, so every set-up starts with empty
// process-wide caches (the plan cache among them) and pays its compiles.
const setupReps = 5

// childTimeout bounds one child set-up.
const childTimeout = 120 * time.Second

// workload is one seeded input set the benchmark runs.
type workload interface {
	// setup builds a fresh instance from the seed. The harness calls it
	// once per process and times it.
	setup(seed int64) error
	// measure runs operations until deadline (and at least minOps of
	// them), recording through p.
	measure(p *phase, deadline time.Time) error
	// check verifies every output measured so far. It runs outside the
	// timed regions.
	check() error
	// layerMetrics adds the workload's per-layer and modelled metrics for
	// the traced phase p.
	layerMetrics(m metricSet, p *phase)
	// close releases the instance.
	close()
}

// spec describes a workload to the harness.
type spec struct {
	name string
	// tailQ is the tail percentile reported as latency_ms_tail: the
	// highest of p99/p90/p80 that keeps ten samples beyond it at the
	// workload's operation rate and repeats within its bound from run to
	// run (README.md gives the spreads).
	tailQ float64
	// ops names the operations latency is taken over; work names the
	// completed units throughput counts.
	ops, work string
	make      func(opts options) workload
}

var specs = []spec{
	{name: "explore", tailQ: 0.90, ops: "points", work: "points", make: func(options) workload { return &explore{} }},
	{name: "long-horizon", tailQ: 0.90, ops: "points", work: "points", make: func(options) workload { return &longHorizon{} }},
	{name: "plan-service", tailQ: 0.90, ops: "requests", work: "good requests", make: func(o options) workload { return newPlanService(o) }},
	{name: "fleet-mix", tailQ: 0.80, ops: "mixes", work: "jobs scheduled", make: func(options) workload { return &fleetMix{} }},
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	limitMs  float64
	outDir   string
	// setupOnly makes the command time one set-up and print its seconds;
	// the command runs itself this way for setup_s.
	setupOnly bool
}

// endToEnd names the metrics every untraced run reports.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer names the metrics every traced run reports. A layer a
// workload never calls reports 0.
var perLayer = func() []metricDecl {
	d := []metricDecl{
		{"compile.calls", "count"},
		{"compile.ms_per_call", "ms"},
		{"plan_cache.hit_ratio", "ratio"},
		{"session.build_ms_per_call", "ms"},
		{"session_pool.hit_ratio", "ratio"},
		{"execute.ms_per_call", "ms"},
		{"execute.alloc_mb_per_point", "MiB"},
		{"sim.events_per_point", "count"},
		{"sim.ops_per_point", "count"},
		{"sim.ns_per_op", "ns"},
		{"sim.pool_hit_ratio", "ratio"},
		{"runtime.gc_cpu_share", "ratio"},
		{"steady.extrapolated_ratio", "ratio"},
		{"steady.hits", "count"},
		{"steady.fallbacks.trace", "count"},
		{"steady.fallbacks.faults", "count"},
		{"steady.fallbacks.off", "count"},
		{"steady.fallbacks.no_convergence", "count"},
		{"serve.plan_us_p50", "us"},
		{"serve.plan_us_p99", "us"},
		{"serve.result_cache.hit_ratio", "ratio"},
		{"serve.coalesced", "count"},
		{"serve.batch.mean_size", "count"},
		{"serve.rejected", "count"},
		{"serve.render_us_per_call", "us"},
		{"loadgen.lag_ms_p99", "ms"},
		{"fleet.prime_ms", "ms"},
		{"fleet.replay_ms", "ms"},
		{"fleet.profile_cache.hit_ratio", "ratio"},
		{"model.offloaded_gb", "GB"},
		{"model.cache.forward_hits", "count"},
		{"model.cache.dedup_hits", "count"},
		{"model.cache.demand_loads", "count"},
		{"model.result_digest", "hash"},
		{"model.results", "count"},
	}
	for _, l := range spanLayers {
		d = append(d, metricDecl{"self.layer." + l, "ratio"})
	}
	d = append(d, metricDecl{"self.unattributed", "ratio"})
	for _, b := range pkgBuckets {
		d = append(d, metricDecl{"self.pkg." + b, "ratio"})
	}
	return append(d,
		metricDecl{"trace.overhead_ratio", "ratio"},
		metricDecl{"trace.accounted_ratio", "ratio"},
		metricDecl{"trace.concurrency", "count"},
		metricDecl{"trace.cpu_utilization", "ratio"},
	)
}()

// metricDecl is a declared metric name and its unit.
type metricDecl struct{ name, unit string }

// conform makes m carry exactly the declared metrics: a declared metric
// the workload did not set reports 0, and a metric set but not declared
// is an error.
func conform(m metricSet, decls []metricDecl) error {
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if v, ok := m[d.name]; !ok {
			m.set(d.name, d.unit, 0)
		} else if v.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, v.Unit, d.unit)
		}
	}
	for n := range m {
		if !declared[n] {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name (explore, long-horizon, plan-service, fleet-mix)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds (split in two halves when tracing)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from an untraced plus a traced run")
	fs.Float64Var(&o.limitMs, "latency-limit-ms", 20, "plan-service latency limit a good request must meet")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one set-up of the workload and print its seconds (used by the command itself)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench-trace"), "directory the traced run writes spans and the CPU profile to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	var sp *spec
	for i := range specs {
		if specs[i].name == o.workload {
			sp = &specs[i]
		}
	}
	if sp == nil || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if o.setupOnly {
		w := sp.make(o)
		defer w.close()
		d, err := timeSetup(w, o.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", d)
		return 0
	}
	res, err := execute(*sp, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// result is the JSON line the command ends with.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func execute(sp spec, o options, out, errOut io.Writer) (*result, error) {
	var setups []float64
	for i := 1; i < setupReps; i++ {
		d, err := childSetup(o, errOut)
		if err != nil {
			return nil, fmt.Errorf("child setup: %w", err)
		}
		setups = append(setups, d)
	}
	w := sp.make(o)
	defer w.close()
	own, err := timeSetup(w, o.seed)
	if err != nil {
		return nil, err
	}
	setups = append(setups, own)
	fmt.Fprintf(out, "%s seed %d: setup %s s over %d cold set-ups %v\n", sp.name, o.seed, fmtF(median(setups)), len(setups), fmtAll(setups))

	m := metricSet{}
	res := &result{Correct: true, Metrics: m}
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p, err := runPhase(sp, w, d, false)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = p.attempted, p.failed
		m.set("setup_s", "s", median(setups))
		m.set("throughput_per_s", "1/s", p.work/p.wall.Seconds())
		p50, tail := quantile(p.lat, 0.5), quantile(p.lat, sp.tailQ)
		if !tail.OK {
			return nil, fmt.Errorf("too few %s for the tail percentile: %v", sp.ops, tail)
		}
		m.set("latency_ms_p50", "ms", p50.Value)
		m.set("latency_ms_tail", "ms", tail.Value)
		m.set("peak_heap_mb", "MiB", p.peakHeapMB)
		if err := conform(m, endToEnd); err != nil {
			return nil, err
		}
		for _, e := range p.errs {
			fmt.Fprintf(out, "%s: failed: %s\n", sp.name, e)
		}
		fmt.Fprintf(out, "%s: %d %s, %.0f %s in %.2f s; latency ms %v %v; %d/%d failed; peak heap %.1f MiB\n",
			sp.name, len(p.lat), sp.ops, p.work, sp.work, p.wall.Seconds(), p50, tail, p.failed, p.attempted, p.peakHeapMB)
	} else {
		plain, err := runPhase(sp, w, d/2, false)
		if err != nil {
			return nil, err
		}
		traced, err := runPhase(sp, w, d/2, true)
		if err != nil {
			return nil, err
		}
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
		commonLayerMetrics(m, traced)
		w.layerMetrics(m, traced)
		// Process CPU time per unit of work, so the open-loop service (whose
		// wall time per request is set by the offered rate) compares too.
		perWork := func(p *phase) float64 { return p.cpu.Seconds() / p.work }
		m.set("trace.overhead_ratio", "ratio", perWork(traced)/perWork(plain))
		if err := traceMetrics(m, traced); err != nil {
			return nil, err
		}
		if err := conform(m, perLayer); err != nil {
			return nil, err
		}
		stem := fmt.Sprintf("%s-seed%d", sp.name, o.seed)
		if err := writeTrace(o.outDir, stem, traced.rec.spans, traced.profile); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "%s: traced %d %s in %.2f s (untraced %d in %.2f s); spans and CPU profile in %s\n",
			sp.name, len(traced.lat), sp.ops, traced.wall.Seconds(), len(plain.lat), plain.wall.Seconds(), filepath.Join(o.outDir, stem+".*"))
		printLayers(out, m)
	}
	if err := w.check(); err != nil {
		res.Correct = false
		fmt.Fprintf(out, "%s: CHECK FAILED: %v\n", sp.name, err)
	} else {
		fmt.Fprintf(out, "%s: all checks passed\n", sp.name)
	}
	return res, nil
}

// timeSetup sets w up from seed and returns the seconds it took.
func timeSetup(w workload, seed int64) (float64, error) {
	runtime.GC()
	start := time.Now()
	if err := w.setup(seed); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// childSetup runs the command again with --setup-only in a fresh process
// and returns the set-up seconds it prints. It waits for the child to
// end, and kills it after childTimeout.
func childSetup(o options, errOut io.Writer) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--setup-only", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = errOut
	blob, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(blob)), 64)
}

// phase is one timed region: what the workload did in it and what the
// process-wide counters moved by.
type phase struct {
	rec    *recorder
	rootID int64
	// minOps is how many operations the region must hold for the
	// workload's tail percentile.
	minOps int
	// lat is each operation's latency in milliseconds.
	lat []float64
	// work counts completed units (points, good requests, jobs).
	work      float64
	attempted int
	failed    int
	wall      time.Duration
	// cpu is the process CPU time (user + system) the region used.
	cpu time.Duration
	// steps counts measured steps of the points the workload executed
	// itself, the base of steady.extrapolated_ratio.
	steps int64
	// simOps counts the simulated executor operations and offload
	// transfers of those points, the base of sim.ns_per_op.
	simOps int64
	// errs keeps the first few operation errors for the report.
	errs []string

	peakHeapMB float64
	rt         runtimeCounters
	sim        sim.Stats
	steady     exp.SteadyStats
	planHits   int64
	planMisses int64
	profile    []byte
}

// note keeps an operation error for the report.
func (p *phase) note(format string, args ...any) {
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// simulated counts a result's simulated work: executor operations and
// offload stores and loads, synthesized steps included.
func (p *phase) simulated(res *exp.RunResult) {
	p.steps += int64(res.SteadyState.SimulatedSteps + res.SteadyState.ExtrapolatedSteps)
	if c := res.Counters; c != nil {
		for _, n := range simOpCounters {
			p.simOps += c.Get(n)
		}
	}
}

var simOpCounters = []string{"exec.fwd_ops", "exec.bwd_ops", "exec.recompute_ops", "cache.stores", "cache.loads"}

// op records one finished operation.
func (p *phase) op(d time.Duration, work float64, err error) {
	p.attempted++
	p.lat = append(p.lat, ms(d))
	if err != nil {
		p.failed++
		return
	}
	p.work += work
}

// settler is a workload that can judge its operations only after the
// timed region ends (the service's bodies are verified against fresh
// renders before a request counts as good).
type settler interface {
	settle(p *phase) error
}

func runPhase(sp spec, w workload, d time.Duration, traced bool) (*phase, error) {
	p := &phase{rec: newRecorder(traced), minOps: minSamples(sp.tailQ)}
	runtime.GC()
	rt0, sim0, st0 := readRuntime(), sim.GlobalStats(), exp.GlobalSteadyStats()
	ph0, pm0 := exp.PlanCacheStats()
	heap := startHeapSampler(time.Millisecond)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			heap.finish()
			return nil, err
		}
	}
	cpu0 := processCPU()
	start := time.Now()
	rootID, endRoot := p.rec.root()
	p.rootID = rootID
	err := w.measure(p, start.Add(d))
	endRoot()
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	p.peakHeapMB = heap.finish()
	if err != nil {
		return nil, err
	}
	p.rt = readRuntime().sub(rt0)
	s1 := sim.GlobalStats()
	p.sim = sim.Stats{
		Processed: s1.Processed - sim0.Processed, Scheduled: s1.Scheduled - sim0.Scheduled,
		PoolHits: s1.PoolHits - sim0.PoolHits, PoolMisses: s1.PoolMisses - sim0.PoolMisses,
	}
	st1 := exp.GlobalSteadyStats()
	p.steady = exp.SteadyStats{
		Hits: st1.Hits - st0.Hits, ExtrapolatedSteps: st1.ExtrapolatedSteps - st0.ExtrapolatedSteps,
		FallbackTrace: st1.FallbackTrace - st0.FallbackTrace, FallbackFaults: st1.FallbackFaults - st0.FallbackFaults,
		FallbackOff: st1.FallbackOff - st0.FallbackOff, FallbackNoConvergence: st1.FallbackNoConvergence - st0.FallbackNoConvergence,
	}
	ph1, pm1 := exp.PlanCacheStats()
	p.planHits, p.planMisses = ph1-ph0, pm1-pm0
	if s, ok := w.(settler); ok {
		if err := s.settle(p); err != nil {
			return nil, err
		}
	}
	if p.work == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", p.errs)
	}
	return p, nil
}

// deadlineReached reports whether a closed-loop workload may stop: the
// time is up and enough operations ran for the tail percentile.
func deadlineReached(p *phase, deadline time.Time) bool {
	return len(p.lat) >= p.minOps && !time.Now().Before(deadline)
}

// commonLayerMetrics fills the per-layer metrics every workload shares:
// the exp compile/session/execute layers as timed from outside, the
// engine and steady-state counters, and the runtime's GC share.
func commonLayerMetrics(m metricSet, p *phase) {
	calls, perCall := p.rec.clock.perCall("compile")
	m.set("compile.calls", "count", float64(calls))
	m.set("compile.ms_per_call", "ms", perCall)
	m.set("plan_cache.hit_ratio", "ratio", ratio(float64(p.planHits), float64(p.planHits+p.planMisses)))
	_, perCall = p.rec.clock.perCall("session.build")
	m.set("session.build_ms_per_call", "ms", perCall)
	execCalls, perCall := p.rec.clock.perCall("execute")
	m.set("execute.ms_per_call", "ms", perCall)
	points := float64(execCalls)
	m.set("sim.events_per_point", "count", ratio(float64(p.sim.Processed), points))
	m.set("sim.ops_per_point", "count", ratio(float64(p.simOps), points))
	execNs := float64(p.rec.clock.total["execute"].Nanoseconds())
	m.set("sim.ns_per_op", "ns", ratio(execNs, float64(p.simOps)))
	m.set("sim.pool_hit_ratio", "ratio", ratio(float64(p.sim.PoolHits), float64(p.sim.Scheduled)))
	m.set("runtime.gc_cpu_share", "ratio", ratio(p.rt.gcCPU, p.rt.totalCPU))
	m.set("execute.alloc_mb_per_point", "MiB", ratio(float64(p.rt.allocBytes)/(1<<20), points))
	m.set("steady.extrapolated_ratio", "ratio", ratio(float64(p.steady.ExtrapolatedSteps), float64(p.steps)))
	m.set("steady.hits", "count", float64(p.steady.Hits))
	m.set("steady.fallbacks.trace", "count", float64(p.steady.FallbackTrace))
	m.set("steady.fallbacks.faults", "count", float64(p.steady.FallbackFaults))
	m.set("steady.fallbacks.off", "count", float64(p.steady.FallbackOff))
	m.set("steady.fallbacks.no_convergence", "count", float64(p.steady.FallbackNoConvergence))
	_, perCall = p.rec.clock.perCall("render")
	m.set("serve.render_us_per_call", "us", perCall*1e3)
}

// traceMetrics splits the traced phase by layer (span self time over
// strand time) and by package (CPU profile samples).
func traceMetrics(m metricSet, p *phase) error {
	self := selfTimes(p.rec.spans)
	strands := float64(strandTime(p.rec.spans))
	var sum float64
	for _, layer := range spanLayers {
		v := ratio(float64(self[layer]), strands)
		m.set("self.layer."+layer, "ratio", v)
		sum += v
	}
	unattributed := ratio(float64(self["root"]), strands)
	m.set("self.unattributed", "ratio", unattributed)
	m.set("trace.accounted_ratio", "ratio", sum+unattributed)
	m.set("trace.concurrency", "count", ratio(strands, float64(p.wall)))
	shares, cpuSeconds, err := pkgShares(p.profile)
	if err != nil {
		return err
	}
	for _, b := range pkgBuckets {
		m.set("self.pkg."+b, "ratio", shares[b])
	}
	m.set("trace.cpu_utilization", "ratio", ratio(cpuSeconds, p.wall.Seconds()*float64(procs)))
	return nil
}

// spanLayers are the layer names workloads record spans under.
var spanLayers = []string{
	"compile", "session.build", "execute", "render",
	"loadgen.request", "serve.handler", "fleet.prime", "fleet.replay", "fleet.render",
}

func printLayers(out io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }

func fmtAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmtF(x)
	}
	return out
}
