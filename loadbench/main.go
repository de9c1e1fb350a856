// Command loadbench is exaclim's seeded end-to-end benchmark. One run
// drives one workload against the real code paths and prints, as the
// last line of standard output, a JSON object with the keys correct,
// attempted, failed and metrics.
//
// Workloads:
//
//	archive-mix   mixed HTTP query load (fields, f32 fields, point,
//	              multi-point and box series, ensemble statistics) over an
//	              L=64 spectral archive served by an in-process server over
//	              one loopback connection: a closed loop, preceded in the
//	              traced run by an open-loop Poisson phase
//	live-paging   what-if paging: two closed-loop users page live emulated
//	              series forward with /v1/field?format=f32, then ask for a
//	              /v1/point series over the paged range
//	campaign      the offline boost cycle: EmulateEnsemble streamed into an
//	              in-memory archive writer, then TrainFrom over the
//	              reopened archive
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// runs the same seeded load twice, untraced and traced, each for half of
// -seconds, and reports the per-layer breakdown computed from the traced
// spans and the /metrics counter deltas, plus the traced-to-untraced
// throughput ratio. Spans are
// kept in memory and written under .bench_build/traces when the run ends.
//
// Build and run from the repository root with loadbench/run.sh, e.g.
//
//	bash loadbench/run.sh -workload archive-mix -seed 1 -seconds 10 -trace 0
//	bash loadbench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"exaclim/internal/sht"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with -trace 0.
// BENCHMARK.json declares the same names and units (pinned by the
// self-check test).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"max_rel_err", "ratio"},
	{"bytes_per_field", "B"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics every workload reports with -trace 1. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"serve.root_self_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.evictions", "count"},
	{"serve.cache.coalesced", "count"},
	{"serve.cache.wait_ms", "ms"},
	{"serve.evalcache.hit_ratio", "ratio"},
	{"serve.encode.ms", "ms"},
	{"serve.encode.bytes", "B"},
	{"archive.decode.ms_per_step", "ms"},
	{"archive.step_decodes", "count"},
	{"archive.chunk_hit_ratio", "ratio"},
	{"archive.read_bytes", "B"},
	{"archive.chunk_amortized", "count"},
	{"sht.synthesis.ms_per_field", "ms"},
	{"sht.synthesis.fields", "count"},
	{"sht.eval.us_per_point_step", "us"},
	{"emulator.live.ms", "ms"},
	{"emulator.live.loads", "count"},
	{"emulator.live.steps", "count"},
	{"emulator.ensemble.self_s", "s"},
	{"archive.write.addfield_ms", "ms"},
	{"archive.write.close_ms", "ms"},
	{"archive.write.fields_per_s", "1/s"},
	{"archive.source.read_ms_per_field", "ms"},
	{"emulator.train.retrain_s", "s"},
	{"emulator.train.rest_s", "s"},
	{"mpchol.factor_s", "s"},
	{"mpchol.conversions", "count"},
	{"mpchol.moved_bytes", "B"},
	{"gen.late_p99_ms", "ms"},
	{"gen.open_p50_ms", "ms"},
	{"gen.open_p99_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
}

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// tally counts operations and wrong answers. A workload's measure
// returns one; the oracle adds its failures to it.
type tally struct {
	attempted, failed int64
	notes             []string // first few failure descriptions, for stderr
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// options are the run parameters shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	scale   scale
	// corrupt makes the oracle expect a deliberately wrong value, so a
	// self-check can prove wrong answers are counted as failures.
	corrupt bool
	// stampw receives the run stamp lines (nil discards them).
	stampw io.Writer
	// traceDir receives traced runs' span files ("" keeps them in
	// memory only).
	traceDir string
}

// scale sizes a workload. fullScale is the benchmark; tinyScale is the
// self-check's.
type scale struct {
	name string

	mixL, mixMembers, mixSteps int     // archive-mix archive shape
	mixCacheFields             int     // f64 field-cache capacity, in fields
	mixRate                    float64 // open-loop arrival rate (req/s)
	sampleEvery                int     // oracle-check one load response in this many

	liveGridL, liveL, liveYears int // live-paging model
	liveMembers, liveSteps      int // live series shape
	liveDepth                   int // pages per session
	liveScriptSessions          int // sessions of the fixed traced script

	campGridL, campL, campYears int // campaign model
	campMembers, campSteps      int // emulated ensemble per cycle

	setupReps int // setups per run; setup_s is their median
}

// fullScale is the benchmark configuration.
var fullScale = scale{
	name: "full",

	mixL: 64, mixMembers: 8, mixSteps: 256,
	mixCacheFields: 192,
	// About half the one-connection closed-loop capacity of the mix
	// (~190 req/s on a 2-vCPU x86-64 virtual machine), frozen.
	mixRate:     95,
	sampleEvery: 16,

	liveGridL: 24, liveL: 16, liveYears: 2,
	liveMembers: 1024, liveSteps: 128,
	liveDepth:          64,
	liveScriptSessions: 10,

	campGridL: 48, campL: 32, campYears: 2,
	campMembers: 8, campSteps: 180,

	setupReps: 3,
}

// tinyScale keeps every code path of fullScale at sizes a self-check
// runs in seconds.
var tinyScale = scale{
	name: "tiny",

	mixL: 16, mixMembers: 3, mixSteps: 70,
	mixCacheFields: 16,
	mixRate:        200,
	sampleEvery:    2,

	liveGridL: 12, liveL: 8, liveYears: 1,
	liveMembers: 16, liveSteps: 24,
	liveDepth:          8,
	liveScriptSessions: 4,

	campGridL: 12, campL: 8, campYears: 1,
	campMembers: 3, campSteps: 40,

	setupReps: 2,
}

// fixtureSeed seeds the synthetic training data of the live-paging and
// campaign models, as in the repository's benchmark fixtures. The model
// is fixed; -seed draws everything the load does with it (series,
// members, locations, ensemble draws), so per-seed differences in
// emulation cost do not masquerade as changes in the code.
const fixtureSeed = 5

// env is a workload after setup: ready to measure.
type env interface {
	// measure runs the timed load and returns the end-to-end metrics
	// except setup_s, which run adds. peak_rss_mb is the resident-set
	// high-water mark during the load (watchRSS).
	measure(o options) (map[string]float64, tally, error)
	// layers runs the load untraced and traced and returns the
	// per-layer metrics.
	layers(o options) (map[string]float64, tally, error)
	// stamp returns workload facts for the run stamp.
	stamp() map[string]any
	// close releases the environment (listeners, goroutines).
	close()
}

// workloads maps a workload name to its setup.
var workloads = map[string]func(o options) (env, error){
	"archive-mix": setupArchiveMix,
	"live-paging": setupLivePaging,
	"campaign":    setupCampaign,
}

func main() {
	workload := flag.String("workload", "", "workload: archive-mix, live-paging or campaign")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer breakdown from a traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload at tiny sizes and check the output contract")
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "selfcheck: ok")
		return
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scale: fullScale, stampw: os.Stdout, traceDir: traceDir}
	res, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up (scale.setupReps times, keeping the last),
// measures it, and assembles the result. The run stamp goes to o.stampw
// as JSON lines.
func run(workload string, o options) (result, error) {
	setup, ok := workloads[workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want archive-mix, live-paging or campaign)", workload)
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	var e env
	var setupTimes []float64
	for i := 0; i < max(1, o.scale.setupReps); i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		e, err = setup(o)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.close()

	writeStamp(workload, o, e.stamp())

	var vals map[string]float64
	var t tally
	var err error
	defs := endToEnd
	if o.trace {
		defs = perLayer
		vals, t, err = e.layers(o)
	} else {
		vals, t, err = e.measure(o)
		if vals != nil {
			vals["setup_s"] = median(setupTimes)
		}
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "loadbench: failure:", n)
	}
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricVal, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", workload, d.name, v)
		}
		res.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

// writeStamp prints the run stamp: what a reader needs to trace a
// number to its cause (machine, runtime, kernel version, and the
// synthesis block the timing-based calibrator picked).
func writeStamp(workload string, o options, extra map[string]any) {
	st := map[string]any{
		"stamp":                true,
		"workload":             workload,
		"seed":                 o.seed,
		"seconds":              o.seconds,
		"trace":                o.trace,
		"scale":                o.scale.name,
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"nproc":                runtime.NumCPU(),
		"go_version":           runtime.Version(),
		"synth_kernel_version": sht.SynthKernelVersion,
	}
	for k, v := range extra {
		st[k] = v
	}
	writeJSONLine(o.stampw, st)
}

// writeJSONLine prints v as one JSON line to w (nil discards it).
func writeJSONLine(w io.Writer, v any) {
	if w == nil {
		return
	}
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintln(w, string(line))
}

// watchRSS samples the process's resident set every 10 ms until the
// returned stop is called; stop returns the largest sample in MiB. It
// first collects garbage and returns the freed memory to the OS, so the
// figure reflects the measured load rather than leftovers of setup.
func watchRSS() (stop func() float64) {
	runtime.GC()
	debug.FreeOSMemory()
	done := make(chan struct{})
	res := make(chan float64)
	go func() {
		peak := rssMiB()
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-done:
				res <- max(peak, rssMiB())
				return
			case <-tk.C:
				peak = max(peak, rssMiB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-res
	}
}

// rssMiB reads the process's current resident set size.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceDir is where traced runs write their spans, inside the build
// directory of the checkout.
const traceDir = ".bench_build/traces"

// writeTraceFile writes a traced run's spans as JSON under dir ("" skips
// it). Failing to write is reported but does not fail the run: the
// numbers were already computed from the in-memory spans.
func writeTraceFile(dir, name string, v any) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench: trace file:", err)
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench: trace file:", err)
		return
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench: trace file:", err)
	}
}
