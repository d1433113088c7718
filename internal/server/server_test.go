// End-to-end coverage of the analysis service over httptest: session
// lifecycle, content-hash dedup, LRU eviction, the workers-identity
// contract at the HTTP surface, and concurrent analyze/edits/read races
// (exercised under -race in CI).
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// dlatchSim loads the repository-level D-latch netlist used across the
// CLI golden tests.
func dlatchSim(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/dlatch.sim")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dlatchConfig mirrors the CLI golden-test configuration.
func dlatchConfig(t *testing.T) SessionConfig {
	return SessionConfig{
		Name: "dlatch", Sim: dlatchSim(t),
		Tech: "nmos-4u", Model: "slope", Tables: "analytic",
		Rise: []string{"d"}, Fall: []string{"d"},
		Fix:   map[string]string{"wr": "1"},
		Slope: 1e-9, Top: 3,
	}
}

// testClient wraps one httptest server with JSON helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, opts Options) *testClient {
	t.Helper()
	srv := httptest.NewServer(New(opts))
	t.Cleanup(srv.Close)
	return &testClient{t: t, srv: srv}
}

// do issues a request and decodes the JSON reply into out (skipped when
// out is nil), returning the HTTP status.
func (c *testClient) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// create loads a session and returns its id.
func (c *testClient) create(cfg SessionConfig) createResponse {
	c.t.Helper()
	var resp createResponse
	if st := c.do("POST", "/v1/sessions", cfg, &resp); st != http.StatusCreated && st != http.StatusOK {
		c.t.Fatalf("create: status %d", st)
	}
	return resp
}

func (c *testClient) analyze(id string, workers int) analyzeResponse {
	c.t.Helper()
	var resp analyzeResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/analyze", analyzeRequest{Workers: workers}, &resp); st != http.StatusOK {
		c.t.Fatalf("analyze: status %d", st)
	}
	return resp
}

func (c *testClient) edits(id, script string) editsResponse {
	c.t.Helper()
	var resp editsResponse
	if st := c.do("POST", "/v1/sessions/"+id+"/edits", editsRequest{Script: script}, &resp); st != http.StatusOK {
		c.t.Fatalf("edits: status %d", st)
	}
	return resp
}

func (c *testClient) metrics() MetricsSnapshot {
	c.t.Helper()
	var m MetricsSnapshot
	if st := c.do("GET", "/metrics", nil, &m); st != http.StatusOK {
		c.t.Fatalf("metrics: status %d", st)
	}
	return m
}

func TestSessionLifecycle(t *testing.T) {
	c := newTestClient(t, Options{})

	if st := c.do("GET", "/healthz", nil, nil); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}

	created := c.create(dlatchConfig(t))
	if created.Cached || created.Transistors == 0 {
		t.Fatalf("create = %+v", created)
	}
	id := created.Session

	// Reads before the first analyze are refused, not empty.
	if st := c.do("GET", "/v1/sessions/"+id+"/critical", nil, nil); st != http.StatusConflict {
		t.Errorf("critical before analyze: status %d, want 409", st)
	}
	var errBody httpError
	if st := c.do("POST", "/v1/sessions/"+id+"/edits", editsRequest{Script: "cap out 1e-15\nrun\n"}, &errBody); st != http.StatusConflict {
		t.Errorf("edits before analyze: status %d, want 409", st)
	}

	an := c.analyze(id, 1)
	if an.Cached || !strings.Contains(an.Report, "timing report") || an.CriticalNs <= 0 {
		t.Fatalf("analyze = cached=%v critical=%v report:\n%s", an.Cached, an.CriticalNs, an.Report)
	}

	var crit struct {
		Paths []PathJSON `json:"paths"`
	}
	if st := c.do("GET", "/v1/sessions/"+id+"/critical?n=2", nil, &crit); st != http.StatusOK {
		t.Fatalf("critical: %d", st)
	}
	if len(crit.Paths) == 0 || len(crit.Paths) > 2 || crit.Paths[0].Endpoint == "" {
		t.Fatalf("critical paths = %+v", crit.Paths)
	}

	ed := c.edits(id, "cap out 2e-14\nrun\n")
	if len(ed.Barriers) != 1 {
		t.Fatalf("edits barriers = %+v", ed.Barriers)
	}
	b := ed.Barriers[0]
	if !b.Incremental {
		t.Errorf("output-cap tweak should be incremental, got full: %s", b.Reason)
	}
	if !strings.Contains(b.Status, "re-analysis (incremental") {
		t.Errorf("status line = %q", b.Status)
	}
	if b.Epoch != 1 || ed.Snapshot.Epoch != 1 {
		t.Errorf("epoch = %d / %d, want 1", b.Epoch, ed.Snapshot.Epoch)
	}

	var info sessionInfo
	if st := c.do("GET", "/v1/sessions/"+id, nil, &info); st != http.StatusOK {
		t.Fatalf("info: %d", st)
	}
	if !info.Analyzed || !info.Edited || info.Barriers != 1 {
		t.Errorf("info = %+v", info)
	}

	m := c.metrics()
	if m.Sessions.Created != 1 || m.Analyze.Full != 1 || m.Edits.Incremental != 1 || m.Edits.DrainEpochs != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.LatencyNs.Analyze.Count != 1 || m.LatencyNs.Analyze.P50Ns <= 0 {
		t.Errorf("analyze latency = %+v", m.LatencyNs.Analyze)
	}

	if st := c.do("DELETE", "/v1/sessions/"+id, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: %d", st)
	}
	if st := c.do("GET", "/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
		t.Errorf("after delete: status %d, want 404", st)
	}
}

// TestContentHashDedup pins the cache contract: identical loads share one
// session; a session that has diverged through edits stops answering
// dedup so a re-load gets pristine state.
func TestContentHashDedup(t *testing.T) {
	c := newTestClient(t, Options{})
	cfg := dlatchConfig(t)

	first := c.create(cfg)
	again := c.create(cfg)
	if !again.Cached || again.Session != first.Session {
		t.Fatalf("identical load should dedup: %+v vs %+v", first, again)
	}
	// A different configuration over the same source is a different key.
	other := cfg
	other.Model = "lumped"
	if got := c.create(other); got.Cached || got.Session == first.Session {
		t.Fatalf("different model should not dedup: %+v", got)
	}

	c.analyze(first.Session, 1)
	c.edits(first.Session, "cap out 2e-14\nrun\n")
	fresh := c.create(cfg)
	if fresh.Cached || fresh.Session == first.Session {
		t.Fatalf("edited session must not answer dedup: %+v", fresh)
	}

	m := c.metrics()
	if m.Sessions.Deduped != 1 || m.Sessions.Created != 3 {
		t.Errorf("metrics = %+v", m.Sessions)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newTestClient(t, Options{MaxSessions: 2})
	cfg := dlatchConfig(t)

	ids := make([]string, 3)
	for i := range ids {
		cc := cfg
		cc.Name = fmt.Sprintf("dlatch-%d", i) // distinct content hash
		ids[i] = c.create(cc).Session
	}
	// 0 is the least recently used: evicted by the third insert.
	if st := c.do("GET", "/v1/sessions/"+ids[0], nil, nil); st != http.StatusNotFound {
		t.Errorf("evicted session answered: %d", st)
	}
	for _, id := range ids[1:] {
		if st := c.do("GET", "/v1/sessions/"+id, nil, nil); st != http.StatusOK {
			t.Errorf("resident session %s: %d", id, st)
		}
	}
	// Recency: touch 1 (making 2 the LRU), insert a fourth → 2 evicted.
	c.do("GET", "/v1/sessions/"+ids[1], nil, nil)
	cc := cfg
	cc.Name = "dlatch-3"
	c.create(cc)
	if st := c.do("GET", "/v1/sessions/"+ids[1], nil, nil); st != http.StatusOK {
		t.Errorf("recently used session evicted: %d", st)
	}
	if st := c.do("GET", "/v1/sessions/"+ids[2], nil, nil); st != http.StatusNotFound {
		t.Errorf("LRU session not evicted: %d", st)
	}
	if m := c.metrics(); m.Sessions.Evicted != 2 || m.Sessions.Live != 2 {
		t.Errorf("metrics = %+v", m.Sessions)
	}
}

// TestAnalyzeSnapshotCache: repeated analyzes serve the snapshot; a
// worker-count change rebuilds and the result is byte-identical.
func TestAnalyzeSnapshotCache(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session

	first := c.analyze(id, 1)
	second := c.analyze(id, 1)
	if !second.Cached {
		t.Error("repeat analyze should serve the snapshot")
	}
	if second.Report != first.Report {
		t.Error("cached report differs")
	}
	rebuilt := c.analyze(id, 8)
	if rebuilt.Cached {
		t.Error("worker change must rebuild")
	}
	if rebuilt.Report != first.Report {
		t.Errorf("workers=8 report differs from workers=1:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			first.Report, rebuilt.Report)
	}
	if m := c.metrics(); m.Analyze.Full != 2 || m.Analyze.Cached != 1 {
		t.Errorf("metrics = %+v", m.Analyze)
	}
}

// TestWorkersIdentityOverHTTP pins the worker-count contract at the
// service surface: an entire session — analyze plus an edit replay — is
// byte-identical between workers=1 and workers=8, structured paths
// included.
func TestWorkersIdentityOverHTTP(t *testing.T) {
	script := "cap out 2e-14\nrun\nresize 2 6e-6 2e-6\nrun\n"
	run := func(workers int) (string, string) {
		c := newTestClient(t, Options{})
		id := c.create(dlatchConfig(t)).Session
		an := c.analyze(id, workers)
		ed := c.edits(id, script)
		var reports strings.Builder
		for _, b := range ed.Barriers {
			reports.WriteString(b.Status + "\n" + b.Report)
		}
		paths, err := json.Marshal(ed.Snapshot.Paths)
		if err != nil {
			t.Fatal(err)
		}
		return an.Report + reports.String(), string(paths)
	}
	rep1, paths1 := run(1)
	rep8, paths8 := run(8)
	if rep1 != rep8 {
		t.Errorf("session transcript differs between workers 1 and 8:\n--- w1 ---\n%s\n--- w8 ---\n%s", rep1, rep8)
	}
	if paths1 != paths8 {
		t.Errorf("structured paths differ:\n%s\nvs\n%s", paths1, paths8)
	}
}

// TestWorkersInputBounded: the request workers field is client input. A
// negative count is rejected with 400 by both the analyze and the edits
// handler; an absurd positive count is accepted, and answers exactly as
// workers=1 does — the prewarm fan-out it sizes is capped at GOMAXPROCS
// (stage.DB.PrewarmMasked), so it cannot start a goroutine per unit.
func TestWorkersInputBounded(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	base := "/v1/sessions/" + id
	if st, raw := c.doRaw("POST", base+"/analyze", map[string]any{"workers": -1}); st != http.StatusBadRequest {
		t.Fatalf("analyze workers=-1: status %d (%s), want 400", st, raw)
	}
	if st, raw := c.doRaw("POST", base+"/edits", map[string]any{"script": "run\n", "workers": -1}); st != http.StatusBadRequest {
		t.Fatalf("edits workers=-1: status %d (%s), want 400", st, raw)
	}
	ref := c.analyze(id, 1)
	huge := c.analyze(id, 1_000_000)
	if huge.Cached || huge.Report != ref.Report {
		t.Fatalf("workers=1000000: cached=%v, report differs:\n--- w1 ---\n%s\n--- huge ---\n%s",
			huge.Cached, ref.Report, huge.Report)
	}
	// A retype forces a full re-analysis, which prewarms the new
	// generation at the session's (retuned) worker count.
	var ed editsResponse
	if st := c.do("POST", base+"/edits", editsRequest{Script: "retype qq output\nrun\n", Workers: 1_000_000}, &ed); st != http.StatusOK {
		t.Fatalf("edits workers=1000000: status %d", st)
	}
	if len(ed.Barriers) != 1 || ed.Barriers[0].Incremental {
		t.Fatalf("edits: barriers %+v, want one full re-analysis", ed.Barriers)
	}
}

// TestConcurrentAnalyzeEdits hammers one session with concurrent
// mutators and readers. Run under -race in CI: the per-session writer
// lock must serialize analyze/edits while snapshot reads stay lock-free.
func TestConcurrentAnalyzeEdits(t *testing.T) {
	c := newTestClient(t, Options{})
	id := c.create(dlatchConfig(t)).Session
	c.analyze(id, 1)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	post := func(path string, body any) {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(body)
		resp, err := c.srv.Client().Post(c.srv.URL+path, "application/json", &buf)
		if err != nil {
			errs <- err.Error()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			errs <- fmt.Sprintf("%s: %d", path, resp.StatusCode)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				sign := "2e-15"
				if (i+j)%2 == 1 {
					sign = "-2e-15"
				}
				post("/v1/sessions/"+id+"/edits", editsRequest{
					Script: fmt.Sprintf("cap out %s\nrun\n", sign),
				})
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				post("/v1/sessions/"+id+"/analyze", analyzeRequest{Workers: 1 + i%2*7, Force: true})
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				resp, err := c.srv.Client().Get(c.srv.URL + "/v1/sessions/" + id + "/critical")
				if err != nil {
					errs <- err.Error()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The session survived and still answers coherently.
	an := c.analyze(id, 1)
	if !strings.Contains(an.Report, "timing report") {
		t.Errorf("post-race report:\n%s", an.Report)
	}
}

func TestRequestErrors(t *testing.T) {
	c := newTestClient(t, Options{})

	// Malformed / invalid creates.
	if st := c.do("POST", "/v1/sessions", map[string]string{}, nil); st != http.StatusBadRequest {
		t.Errorf("empty create: %d", st)
	}
	bad := dlatchConfig(t)
	bad.Tech = "ge-5"
	if st := c.do("POST", "/v1/sessions", bad, nil); st != http.StatusBadRequest {
		t.Errorf("bad tech: %d", st)
	}
	bad = dlatchConfig(t)
	bad.Model = "psychic"
	if st := c.do("POST", "/v1/sessions", bad, nil); st != http.StatusBadRequest {
		t.Errorf("bad model: %d", st)
	}
	bad = dlatchConfig(t)
	bad.Sim = "e broken line"
	if st := c.do("POST", "/v1/sessions", bad, nil); st != http.StatusBadRequest {
		t.Errorf("bad sim: %d", st)
	}
	bad = dlatchConfig(t)
	bad.Fix = map[string]string{"wr": "7"}
	id := c.create(bad).Session
	if st := c.do("POST", "/v1/sessions/"+id+"/analyze", nil, nil); st != http.StatusBadRequest {
		t.Errorf("bad fix value surfaces at analyze: %d", st)
	}

	// Unknown session ids.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/nope"},
		{"DELETE", "/v1/sessions/nope"},
		{"POST", "/v1/sessions/nope/analyze"},
		{"POST", "/v1/sessions/nope/edits"},
		{"GET", "/v1/sessions/nope/critical"},
	} {
		if st := c.do(probe.method, probe.path, editsRequest{Script: "run"}, nil); st != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, st)
		}
	}

	// Script errors carry line positions; applied barriers are reported.
	id = c.create(dlatchConfig(t)).Session
	c.analyze(id, 1)
	var body struct {
		Error    string          `json:"error"`
		Barriers []barrierResult `json:"barriers"`
	}
	st := c.do("POST", "/v1/sessions/"+id+"/edits",
		editsRequest{Script: "cap out 1e-15\nrun\nfrobnicate q\n"}, &body)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("bad script: %d", st)
	}
	if !strings.Contains(body.Error, "script:3") {
		t.Errorf("error lacks position: %q", body.Error)
	}
	if len(body.Barriers) != 1 {
		t.Errorf("applied barriers not reported: %+v", body.Barriers)
	}
	if st := c.do("POST", "/v1/sessions/"+id+"/edits", editsRequest{}, nil); st != http.StatusBadRequest {
		t.Errorf("missing script: %d", st)
	}
	if st := c.do("GET", "/v1/sessions/"+id+"/critical?n=zebra", nil, nil); st != http.StatusBadRequest {
		t.Errorf("bad n: %d", st)
	}
}

// TestSnapshotNamesFeedbackLoop: a session over a real combinational loop
// (an enabled NAND ring oscillator) lists the guarded nodes in
// "unbounded" and the loop itself in "feedback" — its size and members,
// where a loop-break directive goes. A loop-free session carries neither.
func TestSnapshotNamesFeedbackLoop(t *testing.T) {
	p := tech.NMOS4()
	l := gen.NewLib("ring", p)
	en := l.NW.Node("en")
	l.NW.MarkInput(en)
	r0, r1, r2 := l.NW.Node("r0"), l.NW.Node("r1"), l.NW.Node("r2")
	l.Nand(r0, en, r2)
	l.Inverter(r0, r1, 1)
	l.Inverter(r1, r2, 1)
	var sim bytes.Buffer
	if err := netlist.WriteSim(&sim, l.NW); err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, Options{})
	created := c.create(SessionConfig{
		Name: "ring", Sim: sim.String(),
		Tech: "nmos-4u", Model: "slope", Tables: "analytic",
		Rise: []string{"en"}, Top: 1,
	})
	ar := c.analyze(created.Session, 1)
	if len(ar.Unbounded) == 0 {
		t.Fatal("ring oscillator session reports no unbounded nodes")
	}
	if len(ar.Feedback) != 1 {
		t.Fatalf("feedback = %+v, want the one ring", ar.Feedback)
	}
	fb := ar.Feedback[0]
	sort.Strings(fb.Nodes)
	if fb.Size != 3 || fb.Guarded != len(ar.Unbounded) ||
		fmt.Sprint(fb.Nodes) != "[r0 r1 r2]" {
		t.Errorf("feedback loop = %+v, want size 3, %d guarded, nodes [r0 r1 r2]", fb, len(ar.Unbounded))
	}

	clean := c.analyze(c.create(dlatchConfig(t)).Session, 1)
	if len(clean.Unbounded) != 0 || len(clean.Feedback) != 0 {
		t.Errorf("loop-free session reports unbounded %v, feedback %+v", clean.Unbounded, clean.Feedback)
	}
}
