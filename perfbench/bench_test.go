package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ssdtrain/internal/faults"
)

// TestSameSeedSameInputs pins that every workload's input stream is a
// function of its seed alone, and that another seed draws another stream.
func TestSameSeedSameInputs(t *testing.T) {
	streams := map[string]func(seed int64) string{
		"explore": func(seed int64) string {
			g := newExploreGen(seed)
			var b strings.Builder
			for i := 0; i < 200; i++ {
				fmt.Fprintf(&b, "%+v\n", g.next())
			}
			return b.String()
		},
		"long-horizon": func(seed int64) string {
			var shapes []*horizonShape
			for fam := horizonFamily(0); fam < numFamilies; fam++ {
				shapes = append(shapes, &horizonShape{base: horizonBase(fam), scale: 1 << 30})
			}
			g := newHorizonGen(seed)
			var b strings.Builder
			for i := 0; i < 100; i++ {
				fmt.Fprintf(&b, "%+v\n", g.next(shapes))
			}
			return b.String()
		},
		"plan-service": func(seed int64) string {
			g := newArrivalGen(seed)
			var b strings.Builder
			for _, r := range g.hot {
				fmt.Fprintf(&b, "hot %s\n", r.body)
			}
			for i := 0; i < 500; i++ {
				a := g.next()
				fmt.Fprintf(&b, "%v", a.gap)
				for _, r := range a.reqs {
					fmt.Fprintf(&b, " %s %s", r.path, r.body)
				}
				b.WriteString("\n")
			}
			return b.String()
		},
		"fleet-mix": func(seed int64) string {
			plan, err := faults.ParsePlan(fleetFaults)
			if err != nil {
				t.Fatal(err)
			}
			g := newMixSeeds(seed)
			return fmt.Sprintf("%+v%+v", fleetJobMix(g.Int64(), plan), fleetJobMix(g.Int64(), plan))
		},
	}
	for _, sp := range specs {
		gen, ok := streams[sp.name]
		if !ok {
			t.Errorf("workload %s has no input-stream test", sp.name)
			continue
		}
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 drew two different input streams", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 drew the same input stream", sp.name)
		}
	}
}

// TestExploreRepeatsAndMisses checks the explore stream's design: about
// half the points repeat an earlier config, the rest are mostly new.
func TestExploreRepeatsAndMisses(t *testing.T) {
	g := newExploreGen(1)
	seen := map[string]bool{}
	repeats := 0
	const n = 2000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%+v", g.next())
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if share := float64(repeats) / n; share < 0.4 || share > 0.65 {
		t.Errorf("repeat share %.2f, want about half", share)
	}
}

var (
	// The metric-name form the command promises, and the result format's
	// limits on names and units.
	metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	nameRE     = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE     = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every declared metric name and unit, and that
// BENCHMARK.json declares exactly the metrics the command reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}

	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range bench.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, sp := range specs {
		wantW = append(wantW, sp.name)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", gotW, wantW)
	}
	var got, want []metricDecl
	for _, m := range bench.EndToEnd {
		got = append(got, metricDecl{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", got, endToEnd)
	}
	got = nil
	for _, m := range bench.PerLayer {
		got = append(got, metricDecl{m.Name, m.Unit})
	}
	want = perLayer
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", got, want)
	}
}

// TestConform pins the reported metric set to the declared one.
func TestConform(t *testing.T) {
	m := metricSet{}
	m.set("setup_s", "s", 1)
	if err := conform(m, endToEnd); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEnd) || m["latency_ms_p50"].Unit != "ms" {
		t.Errorf("conform did not fill the undeclared-by-workload metrics: %v", m)
	}
	m.set("stray", "s", 1)
	if err := conform(m, endToEnd); err == nil {
		t.Error("conform accepted an undeclared metric")
	}
	m = metricSet{}
	m.set("setup_s", "ms", 1)
	if err := conform(m, endToEnd); err == nil {
		t.Error("conform accepted a unit that differs from the declaration")
	}
}

// TestPercentileWithholds checks that a percentile reports its sample
// count and is withheld with fewer than ten samples beyond it.
func TestPercentileWithholds(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed: quantile must sort
		}
		return v
	}
	for _, c := range []struct {
		q  float64
		n  int
		ok bool
	}{
		{0.99, 999, false}, {0.99, 1000, true},
		{0.90, 99, false}, {0.90, 100, true},
		{0.80, 49, false}, {0.80, 50, true},
		{0.50, 19, false}, {0.50, 20, true},
	} {
		p := quantile(samples(c.n), c.q)
		if p.OK != c.ok {
			t.Errorf("q=%v n=%d: OK=%v, want %v", c.q, c.n, p.OK, c.ok)
		}
		if minSamples(c.q) > c.n == c.ok {
			t.Errorf("q=%v: minSamples %d disagrees with quantile at n=%d", c.q, minSamples(c.q), c.n)
		}
		s := p.String()
		if !strings.Contains(s, fmt.Sprintf("n=%d", c.n)) {
			t.Errorf("%q does not print its sample count", s)
		}
		if strings.Contains(s, "withheld") == c.ok {
			t.Errorf("%q: withheld marker wrong for OK=%v", s, c.ok)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5).Value; got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(samples(101), 0.9).Value; got != 91 {
		t.Errorf("p90 of 1..101 = %v, want 91", got)
	}
}

// TestSelfTimes checks self time as duration minus the union of children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50}, // overlaps the first
		{ID: 4, Parent: 2, Name: "b", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 40 - 10, "a": 30 - 10 + 20, "b": 10, "c": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// The root's children overlap by 10 (a, a) and c runs 20 past the
	// root: strands are 100 + 10, and the self times sum to 130.
	if got := strandTime(spans); got != 110 {
		t.Errorf("strand time %d, want 110", got)
	}
}

// TestSetupOnly runs the command's child mode in-process: it prints one
// positive number of seconds.
func TestSetupOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("sets the service up")
	}
	var out, errOut strings.Builder
	if code := run([]string{"--setup-only", "--workload", "plan-service", "--seed", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if d, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64); err != nil || d <= 0 {
		t.Errorf("printed %q, want positive seconds", out.String())
	}
}

// TestPackageBuckets checks the CPU-profile package split on symbol
// names, including generic instantiations.
func TestPackageBuckets(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "ssdtrain/internal/core.(*TensorCache).pack", "ssdtrain/internal/autograd.(*Executor).Run"}, "core"},
		{[]string{"ssdtrain/internal/lru.(*Cache[go.shape.struct { a/b.c int }, go.shape.*uint8]).Get", "ssdtrain/internal/exp.Compile"}, "lru"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "net/http.(*conn).serve"}, "net_http"},
		{[]string{"main.(*explore).measure"}, "perfbench"},
		{[]string{"ssdtrain/internal/benchfmt.Check"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUProfileDecodes runs a small explore phase traced and checks that
// the profile decodes into shares that sum to one.
func TestCPUProfileDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for a second")
	}
	e := &explore{gen: newExploreGen(3)}
	p, err := runPhase(specs[0], e, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	shares, cpu, err := pkgShares(p.profile)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if cpu <= 0 || sum < 0.999 || sum > 1.001 {
		t.Errorf("profile: %v CPU seconds, shares sum to %v", cpu, sum)
	}
	if shares["autograd"]+shares["core"]+shares["gpu"] == 0 {
		t.Errorf("no samples in the simulator's packages: %v", shares)
	}
	if err := e.check(); err != nil {
		t.Error(err)
	}
}

// TestPlanServiceShortRun drives the service workload for a moment and
// requires every request answered, verified and counted.
func TestPlanServiceShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service for a second")
	}
	var sp spec
	for _, s := range specs {
		if s.name == "plan-service" {
			sp = s
		}
	}
	w := newPlanService(options{limitMs: 1000})
	defer w.close()
	if err := w.setup(5); err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(sp, w, 300*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted < p.minOps || p.work != float64(p.attempted) {
		t.Errorf("%d attempted, %d failed, %v good: %v", p.attempted, p.failed, p.work, p.errs)
	}
	if err := w.check(); err != nil {
		t.Error(err)
	}
	m := metricSet{}
	w.layerMetrics(m, p)
	if m["serve.result_cache.hit_ratio"].Value == 0 {
		t.Errorf("no result-cache hits: %v", m)
	}
}
