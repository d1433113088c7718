package main

// Tests of the benchmark itself. They build crystal and crystald from
// the enclosing repository and run every workload once at the minimum
// length, so they take about two minutes:
//
//	cd perfbench && go test ./...

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// binDir holds the crystal and crystald binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/crystal", "./cmd/crystald")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the binaries: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(2)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// output is the JSON line a run ends with.
type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runOnce runs one workload at the minimum length and parses its result.
func runOnce(t *testing.T, workload string, trace bool, expectNs float64) (int, output) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, root: t.TempDir(), bin: binDir, expectNs: expectNs}
	var buf bytes.Buffer
	status := run(o, &buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", workload, err, buf.String())
	}
	return status, out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames asserts the run emitted exactly defs, with their units.
func checkNames(t *testing.T, out output, defs []metricDef) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range out.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			status, out := runOnce(t, wl.name, false, chip32CriticalNs)
			if status != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("status %d, correct %v, attempted %d, failed %d", status, out.Correct, out.Attempted, out.Failed)
			}
			checkNames(t, out, endToEnd)
			for name, m := range out.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
	// The traced runs of the two kinds of workload: in-process layer
	// passes (e6-cli) and the traced designer loop (daemon-designer).
	for _, name := range []string{"e6-cli", "daemon-designer"} {
		t.Run(name+"/traced", func(t *testing.T) {
			status, out := runOnce(t, name, true, chip32CriticalNs)
			if status != 0 || !out.Correct {
				t.Fatalf("status %d, correct %v", status, out.Correct)
			}
			checkNames(t, out, perLayer)
			for _, m := range []string{"core.run_ms", "core.stage_evals", "trace.spans"} {
				if !(out.Metrics[m].Value > 0) {
					t.Errorf("%s = %v, want > 0", m, out.Metrics[m].Value)
				}
			}
			if name == "daemon-designer" && !(out.Metrics["incremental.reanalyze_ms"].Value > 0) {
				t.Errorf("incremental.reanalyze_ms = %v, want > 0", out.Metrics["incremental.reanalyze_ms"].Value)
			}
		})
	}
}

func TestWrongExpectedArrivalFails(t *testing.T) {
	status, out := runOnce(t, "e6-cli", false, chip32CriticalNs+0.001)
	if status != 1 || out.Correct || out.Failed == 0 {
		t.Fatalf("wrong expected arrival: status %d, correct %v, failed %d; want status 1, correct false, failed > 0",
			status, out.Correct, out.Failed)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, benchmark %v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %v, benchmark %v", i, m, perLayer[i])
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "server.edits", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "incremental.reanalyze", Start: 2 * ms, End: 6 * ms},
		{ID: 2, Parent: 0, Name: "core.x", Start: 5 * ms, End: 12 * ms}, // overlaps and overruns
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"server":      2 * time.Millisecond, // 10 minus the union [2,10]
		"incremental": 4 * time.Millisecond,
		"core":        7 * time.Millisecond,
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}

func TestSelfPctLeavesOutBenchSpans(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "bench.layer_pass", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "core.run", Start: 0, End: 3 * ms},
		{ID: 2, Parent: 0, Name: "netlist.compile", Start: 3 * ms, End: 4 * ms},
	}
	r := newResult()
	tr.summarize(r)
	if got := r.metrics["core.self_pct"].V; got != 75 {
		t.Errorf("core.self_pct = %v, want 75 (the bench span's 6 ms left out)", got)
	}
	if got := r.metrics["netlist.self_pct"].V; got != 25 {
		t.Errorf("netlist.self_pct = %v, want 25", got)
	}
}

func TestP90NeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p90(xs); ok {
		t.Error("p90 of 99 samples reported; fewer than ten lie beyond it")
	}
	xs = append(xs, 100)
	if v, ok := p90(xs); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
}
