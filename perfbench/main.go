// Command perfbench is the analyzer's benchmark. It generates the chip
// netlists from the in-repo generators, drives the shipped crystal and
// crystald binaries on them at their default settings, checks every
// answer, and prints the metrics of one workload: the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a traced run. README.md in
// this directory has the workloads, the metric glossary and the map from
// layer metrics to end-to-end metrics.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload e6-cli --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 15, "failed": 0,
//	 "metrics": {"setup_s": {"value": 0.21, "unit": "s"}, ...}}
//
// A failed output check makes "correct" false and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string  // the checkout: inputs and records go under it
	bin      string  // directory holding the crystal and crystald binaries
	expectNs float64 // the critical arrival the checks compare against
}

// chip32CriticalNs is the reference critical arrival of chip:32 under the
// analytic tables. It does not depend on the feedback guard (the same at
// guard 150, 300 and 600), so it is a property of the circuit.
const chip32CriticalNs = 12443.932

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(o options, tr *tracer) (*result, error)
}

var workloads = []workload{
	{
		name: "e6-cli",
		why: "E6: crystal on chip:32 from a warm .simx, flat, CLI defaults; stage DB and drain do ~95% of the work, " +
			"and hier, incremental and server do nothing here",
		run: func(o options, tr *tracer) (*result, error) { return runCLI(o, tr, e6CLI) },
	},
	{
		name: "xl-hier",
		why: "crystal -hier on chip:32,4 (4 tile instances) from a warm .simx: hier detect and stamp, mmap ingest " +
			"and settle at 4x the E6 scale",
		run: func(o options, tr *tracer) (*result, error) { return runCLI(o, tr, xlHier) },
	},
	{
		name: "daemon-designer",
		why: "crystald at defaults, 2 closed-loop clients on chip:32 sessions: incremental edits, lock-free " +
			"critical reads and forced async analyzes on the default parallel drain",
		run: runDaemon,
	},
}

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is every end-to-end metric; each workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_p50_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"stage_evals_per_node", "count", "lower"},
	{"ops_ok_frac", "ratio", "higher"},
}

// perLayer is every per-layer metric of the traced run. A layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"netlist.load_parse_ms", "ms", "lower"},
	{"netlist.load_mmap_ms", "ms", "lower"},
	{"netlist.compile_ms", "ms", "lower"},
	{"netlist.create_ms", "ms", "lower"},
	{"switchsim.settle_ms", "ms", "lower"},
	{"switchsim.settle_sweeps", "count", "lower"},
	{"stage.db_build_ms", "ms", "lower"},
	{"core.run_ms", "ms", "lower"},
	{"core.stage_evals", "count", "lower"},
	{"core.unbounded_nodes", "count", "lower"},
	{"core.report_ms", "ms", "lower"},
	{"hier.instances", "count", "higher"},
	{"hier.stamped", "count", "higher"},
	{"hier.flat", "count", "lower"},
	{"hier.eval_ratio", "ratio", "lower"},
	{"incremental.reanalyze_ms", "ms", "lower"},
	{"incremental.dirty_frac", "ratio", "lower"},
	{"incremental.stage_evals_per_barrier", "count", "lower"},
	{"incremental.full_fallbacks", "count", "lower"},
	{"server.edit_p50_ms", "ms", "lower"},
	{"server.edit_p90_ms", "ms", "lower"},
	{"server.edit_overhead_ms", "ms", "lower"},
	{"server.critical_ms", "ms", "lower"},
	{"server.critical_p90_ms", "ms", "lower"},
	{"server.critical_bytes", "bytes", "lower"},
	{"server.analyze_run_ms", "ms", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.rejected", "count", "lower"},
	{"netlist.self_pct", "%", "lower"},
	{"switchsim.self_pct", "%", "lower"},
	{"stage.self_pct", "%", "lower"},
	{"core.self_pct", "%", "lower"},
	{"incremental.self_pct", "%", "lower"},
	{"server.self_pct", "%", "lower"},
	{"jobs.self_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// value is one reported number and the sample count behind it.
type value struct {
	V float64
	N int
}

// result is what one workload run measured and checked.
type result struct {
	attempted, failed int
	failures          []string // the first few check failures, for the log
	metrics           map[string]value
	spans             []span
}

func newResult() *result { return &result{metrics: map[string]value{}} }

// op counts one attempted operation; a non-nil err is a failed check.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: e6-cli, xl-hier, daemon-designer, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (edit slices and cycle interleaving of daemon-designer)")
	flag.IntVar(&o.seconds, "seconds", 20, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root; inputs and records are written under it")
	flag.StringVar(&o.bin, "bin", "", "directory holding the crystal and crystald binaries (default <root>/.bench_build/bin)")
	flag.Parse()
	o.trace = trace == 1
	o.expectNs = chip32CriticalNs
	if o.bin == "" {
		o.bin = filepath.Join(o.root, ".bench_build", "bin")
	}
	os.Exit(run(o, os.Stdout))
}

// run executes the selected workload(s), prints the report to w and
// returns the exit status: 0 when every check passed, 1 when a check
// failed, 2 when the run could not be made.
func run(o options, w io.Writer) int {
	if o.workload == "all" {
		status := 0
		for _, wl := range workloads {
			one := o
			one.workload = wl.name
			if st := run(one, w); st > status {
				status = st
			}
		}
		return status
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	env := envStamp(o)
	res, err := wl.run(o, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	defs := endToEnd
	if o.trace {
		tr.summarize(res)
		defs = perLayer
		for _, d := range defs {
			if _, ok := res.metrics[d.Name]; !ok {
				res.set(d.Name, 0, 0) // a layer this workload does not exercise
			}
		}
	}
	for _, d := range defs {
		if _, ok := res.metrics[d.Name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", wl.name, d.Name)
			return 2
		}
	}
	if err := writeRecord(o, wl, env, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
		return 2
	}
	printReport(w, o, wl, env, res, defs)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// envStamp records the machine and build every number was measured on.
func envStamp(o options) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     "unknown (not a git checkout)",
		"seed":       fmt.Sprint(o.seed),
		"inputs": "chip netlists from gen.ChipGrid are deterministic; the seed selects only the " +
			"daemon-designer edit slices and cycle interleaving",
	}
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable lines, one row for the workload
// with every metric, unit and sample count, then the JSON result line.
func printReport(w io.Writer, o options, wl *workload, env map[string]string, res *result, defs []metricDef) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s (trace=%v): %s\n", wl.name, o.trace, wl.why)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %s\n", k, env[k])
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", f)
	}
	var row strings.Builder
	fmt.Fprintf(&row, "%s attempted=%d failed=%d", wl.name, res.attempted, res.failed)
	for _, d := range defs {
		m := res.metrics[d.Name]
		fmt.Fprintf(&row, " | %s %.6g %s n=%d", d.Name, m.V, d.Unit, m.N)
	}
	fmt.Fprintln(w, row.String())

	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jv{}
	for _, d := range defs {
		metrics[d.Name] = jv{res.metrics[d.Name].V, d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	fmt.Fprintln(w, string(line))
}

// writeRecord keeps the full record of a run — environment, why the
// workload exists, every metric with its sample count, the check
// failures and, for a traced run, every span — under .bench_out/.
func writeRecord(o options, wl *workload, env map[string]string, res *result, defs []metricDef) error {
	type rec struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
		N     int     `json:"samples"`
	}
	var ms []rec
	for _, d := range defs {
		ms = append(ms, rec{d.Name, d.Unit, res.metrics[d.Name].V, res.metrics[d.Name].N})
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": wl.name, "why": wl.why, "trace": o.trace, "seconds": o.seconds,
		"env": env, "attempted": res.attempted, "failed": res.failed, "failures": res.failures,
		"metrics": ms, "spans": res.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Join(o.root, ".bench_out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, o.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// runDone reports whether a measuring loop that started at start should
// stop: the run length is reached and the loop has its minimum samples.
func runDone(start time.Time, o options, have, want int) bool {
	return time.Since(start) >= time.Duration(o.seconds)*time.Second && have >= want
}
