package main

// The serve-mix workload: a closed loop of nproc connections against a
// real dsmserved -ledger over loopback HTTP, replaying the generated
// fresh/repeat sequence once per round on a server booted from a copy
// of a prebuilt ledger.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/stats"
	"dsmnc/workload"
)

// serveMinKept is how many quiet rounds a run of serve-mix measures at
// least: enough fresh requests (10 × 108) for a p99 with ten beyond it.
const serveMinKept = 10

// profileRepeats is how many times the traced run profiles the fresh
// cells' direct runs: one pass takes under a second.
const profileRepeats = 3

// requestTimeout bounds one request's submit-to-result time; a request
// over it counts as failed.
const requestTimeout = 60 * time.Second

// readyTimeout bounds a server's boot, ledger replay included.
const readyTimeout = 60 * time.Second

// server is one running dsmserved.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startServer spawns dsmserved on ledger and returns once /readyz
// answers 200, with the time that took (ledger replay included).
func startServer(ctx context.Context, bin, ledger string, client *http.Client) (*server, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	t0 := time.Now()
	// The engine pool is one core fewer than the host has (at least one),
	// so that the client and the server's HTTP handlers keep a core. With
	// an engine on every core, a repeat's latency tail measures the OS
	// scheduler more than the server.
	workers := max(1, runtime.NumCPU()-1)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-ledger", ledger, "-q", "-drain", "30s",
		"-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dsmserved: %w", err)
	}
	s := &server{cmd: cmd}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("dsmserved printed no address: %w", err)
	}
	f := strings.Fields(line)
	s.base = "http://" + f[len(f)-1]
	for {
		if ctx.Err() != nil {
			s.kill()
			return nil, 0, fmt.Errorf("dsmserved not ready: %w", ctx.Err())
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop SIGTERMs the server and waits for it to drain and exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(45 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("dsmserved did not exit after SIGTERM")
	}
}

// kill ends a server that failed to start, and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// served is the outcome of one request.
type served struct {
	req      mixRequest
	err      error
	refs     int64
	counters stats.Counters
	total    time.Duration // submit to result
	post     time.Duration // POST /v1/jobs
	stream   time.Duration // GET /stream until terminal (fresh jobs)
	result   time.Duration // GET /result
}

// do runs one request: submit, wait on the SSE stream unless the job is
// already finished, fetch the result.
func do(ctx context.Context, client *http.Client, base string, req mixRequest) served {
	out := served{req: req}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	var st serve.Status
	code, err := call(ctx, client, http.MethodPost, base+"/v1/jobs", req.cell.body(), &st)
	out.post = time.Since(t0)
	if err == nil && code != http.StatusAccepted && code != http.StatusOK {
		err = fmt.Errorf("POST /v1/jobs: HTTP %d", code)
	}
	if err == nil && !st.State.Terminal() {
		t1 := time.Now()
		st, err = waitStream(ctx, client, base+"/v1/jobs/"+st.ID+"/stream")
		out.stream = time.Since(t1)
	}
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err == nil {
		t2 := time.Now()
		var body struct {
			Result dsmnc.Result `json:"result"`
		}
		code, err = call(ctx, client, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil, &body)
		out.result = time.Since(t2)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET result: HTTP %d", code)
		}
		out.refs, out.counters = body.Result.Refs, body.Result.Counters
	}
	out.total = time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("%s %s/%s/%d/%d: %w", kind(req), req.cell.Bench, req.cell.System,
			req.cell.NCBytes, req.cell.NCWays, err)
	}
	return out
}

func kind(r mixRequest) string {
	if r.fresh {
		return "fresh"
	}
	return "repeat"
}

// call makes one request and decodes a JSON reply into v.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// waitStream follows a job's SSE stream until it reports a terminal
// status.
func waitStream(ctx context.Context, client *http.Client, url string) (serve.Status, error) {
	var st serve.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return st, fmt.Errorf("stream frame: %w", err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("stream ended before a terminal status")
}

// closedLoop sends reqs over conns concurrent clients, each sending its
// next request only after the previous reply.
func closedLoop(ctx context.Context, client *http.Client, base string, reqs []mixRequest, conns int) []served {
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = do(ctx, client, base, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// round is one boot of the server plus one pass of the request
// sequence; its unit holds the server's boot, CPU and peak RSS and the
// closed loop's wall time and latencies.
type round struct {
	unit    unit
	results []served
	scrape  []promSample // the server's /metrics after the loop, trace on only
}

func runRound(ctx context.Context, e *env, prebuilt string, reqs []mixRequest, client *http.Client) (round, error) {
	var rd round
	var err error
	rd.unit = measureUnit(func(u *unit) { rd.results, rd.scrape, err = serveRound(ctx, e, prebuilt, reqs, client, u) })
	return rd, err
}

func serveRound(ctx context.Context, e *env, prebuilt string, reqs []mixRequest, client *http.Client,
	u *unit) (results []served, metrics []promSample, err error) {
	ledger := filepath.Join(e.work, "round.ledger")
	if err := copyFile(prebuilt, ledger); err != nil {
		return nil, nil, err
	}
	defer os.Remove(ledger)
	srv, setup, err := startServer(ctx, e.dsmserved, ledger, client)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
	}()
	u.setup = setup
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	results = closedLoop(ctx, client, srv.base, reqs, runtime.NumCPU())
	u.wall = time.Since(t0)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, nil, err
	}
	u.cpu = cpu1 - cpu0
	if u.peakRSS, err = procPeakRSSMB(srv.pid()); err != nil {
		return nil, nil, err
	}
	for _, s := range results {
		lat := millis(s.total)
		if s.err != nil {
			lat = math.NaN()
		} else {
			u.ops++
		}
		if s.req.fresh {
			u.refs += s.refs
			u.fresh = append(u.fresh, lat)
		} else {
			u.repeat = append(u.repeat, lat)
		}
	}
	if e.trace {
		metrics, err = scrape(ctx, client, srv.base)
	}
	return results, metrics, err
}

func scrape(ctx context.Context, client *http.Client, base string) ([]promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// prebuildLedger runs the repeat pool through a server once, so its
// ledger holds every pool cell finished.
func prebuildLedger(ctx context.Context, e *env, pool []serveCell, client *http.Client) (string, error) {
	path := filepath.Join(e.work, "prebuilt.ledger")
	srv, _, err := startServer(ctx, e.dsmserved, path, client)
	if err != nil {
		return "", err
	}
	reqs := make([]mixRequest, len(pool))
	for i, c := range pool {
		reqs[i] = mixRequest{fresh: true, cell: c}
	}
	for _, s := range closedLoop(ctx, client, srv.base, reqs, runtime.NumCPU()) {
		if s.err != nil {
			_ = srv.stop()
			return "", fmt.Errorf("prebuilding the ledger: %w", s.err)
		}
	}
	return path, srv.stop()
}

// engineInputs maps a served cell to what dsmserved runs for it.
func engineInputs(c serveCell) (*workload.Bench, dsmnc.System, dsmnc.Options, error) {
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleTest
	b := workload.ByName(c.Bench, opt.Scale)
	if b == nil {
		return nil, dsmnc.System{}, opt, fmt.Errorf("unknown bench %q", c.Bench)
	}
	var sys dsmnc.System
	switch c.System {
	case "nc":
		sys = dsmnc.NC(c.NCBytes)
	case "vb":
		sys = dsmnc.VB(c.NCBytes)
	case "vp":
		sys = dsmnc.VP(c.NCBytes)
	default:
		return nil, sys, opt, fmt.Errorf("unknown system %q", c.System)
	}
	sys.NCWays = c.NCWays
	return b, sys, opt, nil
}

// reference is a direct run of one cell.
type reference struct {
	refs     int64
	counters stats.Counters
	model    stats.Model
	engine   time.Duration
	err      error
}

// references runs every distinct cell directly through dsmnc.RunCell,
// outside any timed window.
func references(cells []serveCell) map[serveCell]reference {
	out := map[serveCell]reference{}
	for _, c := range cells {
		if _, ok := out[c]; ok {
			continue
		}
		b, sys, opt, err := engineInputs(c)
		if err != nil {
			out[c] = reference{err: err}
			continue
		}
		t0 := time.Now()
		res, err := dsmnc.RunCell(context.Background(), "", b, sys, opt)
		out[c] = reference{refs: res.Refs, counters: res.Counters, model: res.Model,
			engine: time.Since(t0), err: err}
	}
	return out
}

// tracedServeCell runs a served cell through the instrumented pass and
// checks it against the direct run.
func tracedServeCell(c serveCell, ref reference, spans *layerSpans) error {
	b, sys, opt, err := engineInputs(c)
	if err != nil {
		return err
	}
	t, err := tracedCell(cellSpec{name: fmt.Sprintf("%+v", c), bench: b, sys: sys}, opt)
	if err != nil {
		return err
	}
	spans.add(t)
	return checkServed(served{req: mixRequest{fresh: true, cell: c}, refs: t.refs, counters: t.counters}, ref)
}

// checkServed compares a served result with the direct run of its cell.
func checkServed(s served, ref reference) error {
	if s.err != nil {
		return s.err
	}
	if ref.err != nil {
		return fmt.Errorf("reference run of %+v: %w", s.req.cell, ref.err)
	}
	if s.refs != ref.refs {
		return fmt.Errorf("%+v: served refs %d, direct run %d", s.req.cell, s.refs, ref.refs)
	}
	if d := stats.DiffCounters(s.counters, ref.counters); len(d) > 0 {
		return fmt.Errorf("%+v: %d counters differ from a direct run, first %s", s.req.cell, len(d), d[0])
	}
	return nil
}

func runServeMix(e *env, r *report) error {
	if e.dsmserved == "" {
		return errors.New("-dsmserved is required")
	}
	ctx := context.Background()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * runtime.NumCPU(),
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	pool, reqs := genMix(e.seed, mixPool, mixFreshPerGroup, mixRepeats)
	prebuilt, err := prebuildLedger(ctx, e, pool, client)
	if err != nil {
		return err
	}

	var rounds []round
	var units []unit
	for b := newBudget(e.seconds); b.more(len(rounds), minUnits) || !e.trace && len(quietUnits(units)) < serveMinKept; {
		runtime.GC() // the client starts every round from a collected heap
		rd, err := runRound(ctx, e, prebuilt, reqs, client)
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
		units = append(units, rd.unit)
	}

	// Correctness, outside every timed window: a direct dsmnc.RunCell of
	// every distinct cell.
	var fresh []serveCell
	for _, q := range reqs {
		if q.fresh {
			fresh = append(fresh, q.cell)
		}
	}
	refs := references(fresh)
	for c, ref := range references(pool) {
		refs[c] = ref
	}
	for _, rd := range rounds {
		for _, s := range rd.results {
			r.check(checkServed(s, refs[s.req.cell]))
		}
	}

	if !e.trace {
		reportUnits(r, units, -1, -1, serveMinKept)
		return nil
	}
	// The fresh cells' direct runs again, the engine work the server did
	// in a round, under the CPU profiler (profileRepeats times, for
	// enough samples); then through the instrumented pass, for the
	// per-layer spans and counts, checked like a served result.
	var prof profiler
	runtime.GC()
	prof.start()
	for i := 0; i < profileRepeats; i++ {
		references(fresh)
	}
	if err := prof.stop(); err != nil {
		return err
	}
	spans := &layerSpans{}
	for _, c := range fresh {
		r.check(tracedServeCell(c, refs[c], spans))
	}
	r.Units = len(rounds)
	return reportServeTrace(e, r, rounds, fresh, refs, spans, &prof, prebuilt)
}

func reportServeTrace(e *env, r *report, rounds []round, fresh []serveCell, refs map[serveCell]reference,
	spans *layerSpans, prof *profiler, prebuilt string) error {
	set := func(name string, v float64) { r.Metrics[name] = metric{Value: v} }

	// Client-side spans of every round, and the engine time of the fresh
	// cells' direct runs.
	var post, stream, result, engine, freshServed []float64
	for _, rd := range rounds {
		for _, s := range rd.results {
			if s.err != nil {
				continue
			}
			post = append(post, millis(s.post))
			result = append(result, millis(s.result))
			if s.req.fresh {
				stream = append(stream, millis(s.stream))
				freshServed = append(freshServed, millis(s.total))
			}
		}
	}
	var engineSum time.Duration
	for _, c := range fresh {
		engine = append(engine, millis(refs[c].engine))
		engineSum += refs[c].engine
	}
	set("dsmserved.post_ms", median(post))
	set("dsmserved.stream_ms", median(stream))
	set("dsmserved.result_ms", median(result))
	set("serve.engine_ms", median(engine))
	set("serve.overhead_ms", median(freshServed)-median(engine))
	spans.report(r, len(fresh))
	prof.report(r)

	// The /metrics scrape at the end of the last round.
	last := rounds[len(rounds)-1].scrape
	for _, h := range []struct{ metric, series string }{
		{"serve.queue_wait_ms", "dsmnc_serve_queue_wait_seconds"},
		{"serve.run_ms", "dsmnc_serve_run_seconds"},
	} {
		mean, err := histogramMean(last, h.series)
		if err != nil {
			return err
		}
		set(h.metric, mean*1000)
	}
	for _, c := range []struct{ metric, series string }{
		{"serve.deduped", "dsmnc_serve_deduped_total"},
		{"serve.shed", "dsmnc_serve_shed_total"},
		{"serve.failed", "dsmnc_serve_failed_total"},
		{"serve.ledger_errors", "dsmnc_serve_ledger_errors_total"},
	} {
		v, ok := promValue(last, c.series)
		if !ok {
			return fmt.Errorf("/metrics has no %s", c.series)
		}
		set(c.metric, v)
	}
	submitted, _ := promValue(last, "dsmnc_serve_submitted_total")
	if deduped := r.Metrics["serve.deduped"].Value; deduped+submitted > 0 {
		set("serve.dedup_ratio", deduped/(deduped+submitted))
	}

	if err := serveCalls(e, r, prebuilt); err != nil {
		return err
	}
	// Tracing overhead: the instrumented pass over the fresh cells
	// against their unprofiled direct runs.
	finishTrace(r, []float64{spans.total.Seconds()}, []float64{engineSum.Seconds()})
	return nil
}

// serveCalls times the serve package's layers from outside, in process:
// request decoding, fingerprinting, Scheduler.Submit with and without a
// ledger, and recovery of the prebuilt ledger.
func serveCalls(e *env, r *report, prebuilt string) error {
	set := func(name string, v float64) { r.Metrics[name] = metric{Value: v} }
	_, reqs := genMix(e.seed, mixPool, mixFreshPerGroup, mixRepeats)
	var parse, fp []float64
	var parsed []serve.Request
	for _, q := range reqs {
		body := q.cell.body()
		t0 := time.Now()
		req, err := serve.ParseRequest(body)
		parse = append(parse, micros(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		_ = req.Fingerprint()
		fp = append(fp, micros(time.Since(t0)))
		if q.fresh {
			parsed = append(parsed, req)
		}
	}
	set("serve.parse_us", median(parse))
	set("serve.fingerprint_us", median(fp))

	for _, withLedger := range []bool{false, true} {
		cfg := serve.Config{Workers: 1, QueueDepth: len(parsed) + 1}
		if withLedger {
			l, err := serve.OpenLedger(filepath.Join(e.work, "submit.ledger"))
			if err != nil {
				return err
			}
			cfg.Ledger = l
		}
		us, err := timeSubmits(cfg, parsed)
		if err != nil {
			return err
		}
		if withLedger {
			set("serve.submit_us", us)
		} else {
			set("serve.submit_noledger_us", us)
		}
	}

	var recovery []float64
	for i := 0; i < 5; i++ {
		path := filepath.Join(e.work, "recovery.ledger")
		if err := copyFile(prebuilt, path); err != nil {
			return err
		}
		t0 := time.Now()
		l, err := serve.OpenLedger(path)
		if err != nil {
			return err
		}
		s, err := serve.New(serve.Config{Workers: 1, Ledger: l})
		if err != nil {
			return err
		}
		recovery = append(recovery, millis(time.Since(t0)))
		if err := drain(s); err != nil {
			return err
		}
	}
	set("serve.ledger_recover_ms", median(recovery))
	return nil
}

// timeSubmits returns the median Scheduler.Submit time in µs, then
// drains the scheduler.
func timeSubmits(cfg serve.Config, reqs []serve.Request) (float64, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return 0, err
	}
	var us []float64
	for _, req := range reqs {
		t0 := time.Now()
		_, err := s.Submit(req)
		us = append(us, micros(time.Since(t0)))
		if err != nil {
			_ = drain(s)
			return 0, err
		}
	}
	return median(us), drain(s)
}

func drain(s *serve.Scheduler) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.Drain(ctx)
}
