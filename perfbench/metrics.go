package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogs below
// are the benchmark's contract with BENCHMARK.json (checked by
// TestCatalogMatchesBenchmarkJSON): every workload reports every metric of
// the catalog its mode selects.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system pays for; reported with --trace 0.
// The operation behind op_minstr is workload specific (see README.md): a
// fixed-budget curriculum run on genet-*, one /decide round trip on
// serve-http.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_minstr", "Minstr"},
}

// perLayer attributes the end-to-end numbers to the program's modules;
// reported with --trace 1. A layer a workload never calls reads 0 there.
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"train.run_s", "s"},
	{"core.eval_s", "s"},
	{"core.eval_minstr", "Minstr"},
	{"core.eval_envs", "count"},
	{"core.eval_env_ms", "ms"},
	{"core.eval_share", "ratio"},
	{"core.train_s", "s"},
	{"core.train_minstr", "Minstr"},
	{"core.train_iters", "count"},
	{"core.train_share", "ratio"},
	{"core.train_self_s", "s"},
	{"core.search_self_s", "s"},
	{"rl.rollout_s", "s"},
	{"rl.rollout_share", "ratio"},
	{"rl.train_steps", "count"},
	{"rl.update_s", "s"},
	{"rl.update_share", "ratio"},
	{"rl.update_gflops", "GFLOP/s"},
	{"abr.episode_rl_us", "us"},
	{"abr.episode_baseline_us", "us"},
	{"cc.episode_rl_us", "us"},
	{"cc.episode_baseline_us", "us"},
	{"train.test_gap", "reward"},
	{"trace.overhead_run_s", "s"},
	{"serve.forward_us", "us"},
	{"serve.forward_allocs", "count"},
	{"serve.admit_us", "us"},
	{"serve.codec_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.client_allocs", "count"},
	{"serve.transport_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.transport_codec_share", "ratio"},
	{"serve.send_late_p99_us", "us"},
	{"serve.send_late_max_us", "us"},
	{"serve.swap_ms", "ms"},
	{"serve.swaps", "count"},
	{"serve.mismatch", "count"},
	{"decide.closed_p50_us", "us"},
	{"decide.closed_p95_us", "us"},
	{"decide.closed_rps", "1/s"},
	{"decide.r5k.p50_us", "us"},
	{"decide.r5k.p90_us", "us"},
	{"decide.r15k.p50_us", "us"},
	{"decide.r15k.p90_us", "us"},
	{"decide.max_rps", "1/s"},
	{"trace.overhead_r15k_p50_us", "us"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload measured: values by metric name, the
// operations it attempted and failed, and the first correctness problem.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail records a correctness problem; the run then reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result selects the catalog's metrics. A missing end-to-end metric is a
// bug in the workload; a missing per-layer metric is a layer the workload
// does not exercise and reads 0.
func (o *outcome) result(catalog []metricDef, requireAll bool) (result, error) {
	r := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(catalog)),
	}
	for _, m := range catalog {
		v, ok := o.values[m.name]
		if !ok && requireAll {
			return result{}, fmt.Errorf("workload did not measure %s", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite: %v", m.name, v)
		}
		r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return r, nil
}

// printTable writes every measured value, both catalogs, for people.
func (o *outcome) printTable(w io.Writer) {
	names := make([]string, 0, len(o.values))
	for k := range o.values {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, o.values[k], units[k])
	}
	if o.attempted > 0 {
		fmt.Fprintf(w, "  %-30s %14.6g ratio (%d of %d)\n", "fail_ratio", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}

var inf = math.Inf(1)

// pct is the p-th percentile (nearest rank on the sorted copy; +Inf
// entries sort last, so failures count as misses).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return pct(xs, 50) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// resetPeakRSS hands the heap's free pages back to the kernel and restarts
// the kernel's peak-RSS mark at the current resident size, so the peak
// peakRSSMB reads afterwards is the measured phase's. Without it,
// serve-http's peak would be set by building its fixture, and would move
// with where the GC cycles of those builds fell.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) since it
// started or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// goStats is the work one phase did: the instructions the process retired,
// and the Go runtime's allocation and GC counters.
type goStats struct{ minstr, allocMB, gcCycles, gcPauseMS float64 }

// goPhase runs f and returns the counters it moved; ic counts the
// instructions.
func goPhase(ic *instrCounter, f func() error) (goStats, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	i0, err := ic.read()
	if err != nil {
		return goStats{}, err
	}
	err = f()
	i1, ierr := ic.read()
	runtime.ReadMemStats(&b)
	if err == nil {
		err = ierr
	}
	return goStats{
		minstr:    float64(i1-i0) / 1e6,
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}, err
}

func (g goStats) record(o *outcome) {
	o.set("go.alloc_mb", g.allocMB)
	o.set("go.gc_cycles", g.gcCycles)
	o.set("go.gc_pause_ms", g.gcPauseMS)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
