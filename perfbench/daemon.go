package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// daemonClients closed-loop clients, one chip:32 session each: one
	// client per CPU of a 2-CPU runner.
	daemonClients = 2
	// daemonSetupReps is how many daemon set-ups setup_s is the median of.
	daemonSetupReps = 3
	// analyzeEvery: each client forces a full async analyze every Nth
	// cycle, at a seeded phase.
	analyzeEvery = 10
	// minLatencySamples edits and critical reads per run, so that their
	// p90 has at least ten samples beyond it.
	minLatencySamples = 100
	// maxLoop caps the designer loop when the daemon is too slow to
	// reach minLatencySamples, keeping the run inside its time limit.
	maxLoop = 90 * time.Second
	// pollEvery is the job poll interval; it bounds how late the benchmark
	// sees a finished analyze.
	pollEvery  = 5 * time.Millisecond
	jobTimeout = time.Minute
)

// runDaemon measures the designer loop against crystald at its shipped
// defaults (only -addr set).
func runDaemon(o options, tr *tracer) (*result, error) {
	dir, err := inputDir(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeChip(dir, daemonDesigner.tiles)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if tr != nil {
		// The layers under the daemon, in process, at its analysis
		// settings; before any daemon runs, so nothing contends.
		one := o
		one.seconds = 0 // a single pass
		layerPasses(one, tr, res, in, daemonDesigner)
	}
	s := &daemonSamples{}
	var setup []float64
	var d *daemon
	var clients []*client
	for rep := 0; rep < daemonSetupReps; rep++ {
		if d != nil {
			res.op(d.stop())
		}
		start := time.Now()
		d, clients, err = setupDaemon(o, tr, in, res, s, rep)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setup), len(setup))

	// The designer loop: each client edits, reads the critical path and
	// every analyzeEvery cycles forces a full analyze, until the run
	// length is reached and the latency percentiles have their samples.
	var edits, reads atomic.Int64
	start := time.Now()
	done := func() bool {
		if time.Since(start) >= maxLoop {
			return true
		}
		return runDone(start, o, int(min(edits.Load(), reads.Load())), minLatencySamples)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for cycle := 0; !done(); cycle++ {
				c.editOp(d, tr, cycle)
				edits.Add(1)
				c.criticalOp(d, tr, cycle)
				reads.Add(1)
				if (cycle+c.phase)%analyzeEvery == analyzeEvery-1 {
					c.analyzeOp(d, tr, cycle)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var m struct {
		Jobs struct {
			Rejected int64 `json:"rejected"`
		} `json:"jobs"`
	}
	if st, _, err := d.call("GET", "/metrics", nil, &m); err != nil || st != http.StatusOK {
		res.op(fmt.Errorf("GET /metrics: status %d: %v", st, err))
	}
	hwm, hwmErr := vmHWM(d.cmd.Process.Pid)
	res.op(d.stop())
	if hwmErr != nil {
		return nil, hwmErr
	}

	ok := 0
	for _, c := range clients {
		for _, err := range c.errs {
			res.op(err)
			if err == nil {
				ok++
			}
		}
		s.merge(&c.daemonSamples)
	}
	res.set("wall_p50_s", median(s.analyze)/1e3, len(s.analyze))
	res.set("throughput_ops_s", float64(ok)/elapsed, ok)
	res.set("peak_rss_mb", float64(hwm)/1024, 1)
	res.set("stage_evals_per_node", s.evalsPerNode, len(s.create))
	res.set("ops_ok_frac", float64(res.attempted-res.failed)/float64(res.attempted), res.attempted)

	res.set("netlist.create_ms", median(s.create), len(s.create))
	res.set("incremental.reanalyze_ms", median(s.reanalyze), len(s.reanalyze))
	res.set("incremental.dirty_frac", median(s.dirty), len(s.dirty))
	res.set("incremental.stage_evals_per_barrier", median(s.barrierEvals), len(s.barrierEvals))
	res.set("incremental.full_fallbacks", float64(s.fullFallbacks), len(s.reanalyze))
	res.set("server.edit_p50_ms", median(s.edit), len(s.edit))
	setP90(res, "server.edit_p90_ms", s.edit)
	res.set("server.edit_overhead_ms", median(s.editOverhead), len(s.editOverhead))
	res.set("server.critical_ms", median(s.critical), len(s.critical))
	setP90(res, "server.critical_p90_ms", s.critical)
	res.set("server.critical_bytes", median(s.criticalBytes), len(s.criticalBytes))
	res.set("server.analyze_run_ms", median(s.analyzeRun), len(s.analyzeRun))
	res.set("jobs.queue_wait_ms", median(s.queueWait), len(s.queueWait))
	res.set("jobs.rejected", float64(m.Jobs.Rejected), 1)
	return res, nil
}

func setP90(res *result, name string, xs []float64) {
	v, ok := p90(xs)
	if !ok {
		v = 0
	}
	res.set(name, v, len(xs))
}

// daemonSamples are the designer loop's measurements, per client and
// then merged. Times are in ms.
type daemonSamples struct {
	create, edit, editOverhead, reanalyze, dirty, barrierEvals []float64
	critical, criticalBytes                                    []float64
	analyze, analyzeRun, queueWait                             []float64
	fullFallbacks                                              int
	evalsPerNode                                               float64
}

func (s *daemonSamples) merge(o *daemonSamples) {
	s.edit = append(s.edit, o.edit...)
	s.editOverhead = append(s.editOverhead, o.editOverhead...)
	s.reanalyze = append(s.reanalyze, o.reanalyze...)
	s.dirty = append(s.dirty, o.dirty...)
	s.barrierEvals = append(s.barrierEvals, o.barrierEvals...)
	s.critical = append(s.critical, o.critical...)
	s.criticalBytes = append(s.criticalBytes, o.criticalBytes...)
	s.analyze = append(s.analyze, o.analyze...)
	s.analyzeRun = append(s.analyzeRun, o.analyzeRun...)
	s.queueWait = append(s.queueWait, o.queueWait...)
	s.fullFallbacks += o.fullFallbacks
}

// setupDaemon starts crystald and brings both sessions to their first
// full analysis: spawn, /healthz, create each session, analyze each.
func setupDaemon(o options, tr *tracer, in *chipInput, res *result, s *daemonSamples, rep int) (*daemon, []*client, error) {
	req := fmt.Sprintf("setup%d", rep)
	root := tr.begin("bench.daemon_setup", req, -1)
	defer tr.end(root)
	d, err := startDaemon(filepath.Join(o.bin, "crystald"))
	if err != nil {
		return nil, nil, err
	}
	var clients []*client
	for i := 0; i < daemonClients; i++ {
		// Distinct names keep content-hash dedup from merging the
		// sessions.
		cfg := map[string]any{
			"name": fmt.Sprintf("chip32-client%d", i), "sim": in.simText, "tables": "analytic",
			"fix": in.fix, "loopbreak": in.loop,
		}
		var created struct {
			Session string `json:"session"`
			Nodes   int    `json:"nodes"`
		}
		id := tr.begin("netlist.create", req, root)
		start := time.Now()
		st, _, err := d.call("POST", "/v1/sessions", cfg, &created)
		s.create = append(s.create, ms(time.Since(start)))
		tr.end(id)
		if err == nil && st != http.StatusCreated {
			err = fmt.Errorf("create session: status %d, want 201", st)
		}
		res.op(err)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		clients = append(clients, newClient(o, i, created.Session, created.Nodes))
	}
	for _, c := range clients {
		var ar analyzeResult
		id := tr.begin("server.analyze_initial", req, root)
		st, _, err := d.call("POST", "/v1/sessions/"+c.id+"/analyze", map[string]any{}, &ar)
		tr.end(id)
		tr.child("core.analyze_run", id, 0, time.Duration(ar.DurationNs))
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("initial analyze: status %d", st)
		}
		if err == nil {
			err = checkCritical(ar.CriticalNs, o.expectNs)
		}
		if err == nil {
			epn := float64(ar.StagesEvaluated) / float64(c.nodes)
			if s.evalsPerNode != 0 && epn != s.evalsPerNode {
				err = fmt.Errorf("stage evaluations per node changed between analyses: %v then %v", s.evalsPerNode, epn)
			}
			s.evalsPerNode = epn
		}
		res.op(err)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		c.critNs = ar.CriticalNs
	}
	return d, clients, nil
}

// analyzeResult is the part of an analyze response the checks read.
type analyzeResult struct {
	CriticalNs      float64 `json:"critical_ns"`
	StagesEvaluated int     `json:"stages_evaluated"`
	DurationNs      int64   `json:"duration_ns"`
}

// client is one closed-loop designer with its own session.
type client struct {
	daemonSamples
	n      int
	id     string // session id
	nodes  int
	rng    *rand.Rand
	phase  int     // cycle offset of the forced analyzes
	critNs float64 // the critical arrival the session last reported
	slice  []edit  // the designer slice, in this cycle's order
	errs   []error // one entry per operation; nil = passed
}

// newClient seeds client n. The seed picks the edit order and the phase
// of the forced analyzes; the two clients' analyzes are staggered by
// half a period, so that whether they overlap does not depend on the
// seed.
func newClient(o options, n int, id string, nodes int) *client {
	phase := int(o.seed%analyzeEvery+analyzeEvery)%analyzeEvery + n*analyzeEvery/daemonClients
	rng := rand.New(rand.NewSource(o.seed*1000003 + int64(n)))
	return &client{n: n, id: id, nodes: nodes, rng: rng, phase: phase, slice: designerSlice()}
}

// edit is one cap edit of the designer's slice.
type edit struct {
	node string
	capF float64 // added on even cycles, taken back on odd ones
}

// designerSlice is the edit slice of BenchmarkE6Incremental: every
// multiplier product and address output (+20 fF each) and au_cout
// (+10 fF): 65 of chip:32's 10,976 nodes, a barrier that leaves about
// 0.6% of the chip dirty.
func designerSlice() []edit {
	var s []edit
	for j := 0; j < chipWidth; j++ {
		s = append(s, edit{fmt.Sprintf("prod%d", j), 20e-15}, edit{fmt.Sprintf("ea%d", j), 20e-15})
	}
	return append(s, edit{"au_cout", 10e-15})
}

// script is cycle's edit batch: the whole designer slice, in an order the
// seed picks afresh on each even cycle. Even cycles add the caps and odd
// cycles take them back, so the chip does not drift, as in
// BenchmarkE6Incremental. Every seed edits the same nodes by the same
// amounts, so every seed asks for the same work.
func (c *client) script(cycle int) string {
	sign := 1.0
	if cycle%2 == 0 {
		c.rng.Shuffle(len(c.slice), func(i, j int) { c.slice[i], c.slice[j] = c.slice[j], c.slice[i] })
	} else {
		sign = -1
	}
	var b strings.Builder
	for _, e := range c.slice {
		fmt.Fprintf(&b, "cap %s %s\n", e.node, strconv.FormatFloat(sign*e.capF, 'g', -1, 64))
	}
	b.WriteString("run\n")
	return b.String()
}

// editOp applies one sync edit script; its one barrier must be incremental.
func (c *client) editOp(d *daemon, tr *tracer, cycle int) {
	var resp struct {
		Barriers []struct {
			Incremental     bool    `json:"incremental"`
			Reason          string  `json:"reason"`
			DirtyFrac       float64 `json:"dirty_frac"`
			StagesEvaluated int     `json:"stages_evaluated"`
			DurationNs      int64   `json:"duration_ns"`
		} `json:"barriers"`
		Snapshot struct {
			CriticalNs float64 `json:"critical_ns"`
		} `json:"snapshot"`
	}
	script := c.script(cycle)
	id := tr.begin("server.edits", c.req(cycle), -1)
	start := time.Now()
	st, _, err := d.call("POST", "/v1/sessions/"+c.id+"/edits", map[string]any{"script": script}, &resp)
	lat := time.Since(start)
	tr.end(id)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("edits: status %d", st)
	}
	if err == nil && len(resp.Barriers) != 1 {
		err = fmt.Errorf("edits: %d barriers, want 1", len(resp.Barriers))
	}
	if err == nil {
		b := resp.Barriers[0]
		tr.child("incremental.reanalyze", id, 0, time.Duration(b.DurationNs))
		c.edit = append(c.edit, ms(lat))
		c.editOverhead = append(c.editOverhead, ms(lat-time.Duration(b.DurationNs)))
		c.reanalyze = append(c.reanalyze, ms(time.Duration(b.DurationNs)))
		c.dirty = append(c.dirty, b.DirtyFrac)
		c.barrierEvals = append(c.barrierEvals, float64(b.StagesEvaluated))
		c.critNs = resp.Snapshot.CriticalNs
		if !b.Incremental {
			c.fullFallbacks++
			err = fmt.Errorf("edit barrier fell back to a full analysis: %s", b.Reason)
		}
	}
	c.errs = append(c.errs, err)
}

// criticalOp reads the critical path; with this client the session's only
// writer, it must be what the last edit installed.
func (c *client) criticalOp(d *daemon, tr *tracer, cycle int) {
	var resp struct {
		CriticalNs float64 `json:"critical_ns"`
	}
	id := tr.begin("server.critical", c.req(cycle), -1)
	start := time.Now()
	st, n, err := d.call("GET", "/v1/sessions/"+c.id+"/critical", nil, &resp)
	lat := time.Since(start)
	tr.end(id)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("critical: status %d", st)
	}
	if err == nil {
		c.critical = append(c.critical, ms(lat))
		c.criticalBytes = append(c.criticalBytes, float64(n))
		if resp.CriticalNs != c.critNs {
			err = fmt.Errorf("critical read %v ns, the last edit reported %v ns", resp.CriticalNs, c.critNs)
		}
	}
	c.errs = append(c.errs, err)
}

// analyzeOp forces a full analysis on the job plane and polls it to
// completion. Its critical arrival must equal the one the incremental
// engine reported just before: the incremental-equals-full contract.
func (c *client) analyzeOp(d *daemon, tr *tracer, cycle int) {
	var sub struct {
		Poll string `json:"poll"`
	}
	var job struct {
		State    string          `json:"state"`
		Status   int             `json:"status"`
		QueuedNs int64           `json:"queued_ns"`
		RunNs    int64           `json:"run_ns"`
		Result   json.RawMessage `json:"result"`
	}
	id := tr.begin("server.analyze", c.req(cycle), -1)
	start := time.Now()
	st, _, err := d.call("POST", "/v1/sessions/"+c.id+"/analyze", map[string]any{"async": true, "force": true}, &sub)
	if err == nil && st != http.StatusAccepted {
		err = fmt.Errorf("async analyze: status %d, want 202", st)
	}
	for err == nil && job.State != "done" && job.State != "failed" {
		if time.Since(start) > jobTimeout {
			err = fmt.Errorf("analyze job %s not done after %v", sub.Poll, jobTimeout)
			break
		}
		time.Sleep(pollEvery)
		if st, _, err = d.call("GET", sub.Poll, nil, &job); err == nil && st != http.StatusOK {
			err = fmt.Errorf("poll %s: status %d", sub.Poll, st)
		}
	}
	lat := time.Since(start)
	tr.end(id)
	if err == nil && job.Status != http.StatusOK {
		err = fmt.Errorf("analyze job %s: status %d", job.State, job.Status)
	}
	var ar analyzeResult
	if err == nil {
		err = json.Unmarshal(job.Result, &ar)
	}
	if err == nil {
		tr.child("jobs.queue_wait", id, 0, time.Duration(job.QueuedNs))
		tr.child("core.analyze_run", id, time.Duration(job.QueuedNs), time.Duration(job.RunNs))
		c.analyze = append(c.analyze, ms(lat))
		c.analyzeRun = append(c.analyzeRun, ms(time.Duration(job.RunNs)))
		c.queueWait = append(c.queueWait, ms(time.Duration(job.QueuedNs)))
		if ar.CriticalNs != c.critNs {
			err = fmt.Errorf("forced analyze critical %v ns, incremental reported %v ns", ar.CriticalNs, c.critNs)
		}
	}
	c.errs = append(c.errs, err)
}

func (c *client) req(cycle int) string { return fmt.Sprintf("c%d-cycle%d", c.n, cycle) }

// daemon is one crystald process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	hc      *http.Client
	stderr  bytes.Buffer
	exited  chan struct{}
	waitErr error // valid once exited is closed
}

// startDaemon spawns crystald on a free localhost port with no flag but
// -addr, and waits until /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, hc: &http.Client{Timeout: 2 * time.Minute}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr)
	d.cmd.Stderr = &d.stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	limit := time.Now().Add(30 * time.Second)
	for {
		if resp, err := d.hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("crystald exited during start-up: %v: %s", d.waitErr, d.stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(limit) {
			d.stop()
			return nil, errors.New("crystald did not answer /healthz within 30s")
		}
	}
}

// stop sends SIGTERM and waits for the graceful drain; a daemon that
// does not exit cleanly is an error.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("crystald did not exit within 60s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("crystald exit: %v: %s", d.waitErr, d.stderr.String())
	}
	return nil
}

// call sends one request with an optional JSON body and decodes a JSON
// reply into out. It returns the status and the reply's size in bytes.
func (d *daemon) call(method, path string, body, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(data), err
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, len(data), fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, len(data), nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// vmHWM is the peak resident set of a live process in KiB.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
