package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/fleet"
	"hdpower/internal/power"
	"hdpower/internal/serve"
	"hdpower/internal/sim"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow warm-up op does not move it.
const setupRepeats = 9

// spanHeader carries the client span's id to the server-side handler
// span, and opHeader the op id, so the two join into one trace.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// rig is one set-up instance of a workload: everything a user pays for
// before the first timed op, plus the op itself.
type rig struct {
	clients int // closed-loop clients (or characterizations in flight)
	perOp   int // patterns characterized or cycles estimated per op
	// chunk is how many consecutive completions one throughput sample
	// spans; ops_per_s is the median of those samples, so a host stall
	// moves one sample instead of the whole window's mean.
	chunk int
	// op runs op i on client c. A returned error is a failed op: a
	// non-200 answer, a transport error or a wrong output.
	op    func(c, i int) error
	close func()
	// other is the estimate rig's second plane (stream for a unary rig,
	// unary for a stream rig), which traced runs also measure for
	// otherOps ops.
	other    func(c, i int) error
	otherOps int

	url    string // server base URL, "" without a server
	tr     atomic.Pointer[tracer]
	rpc    *rpcCounter   // fleet RPC accounting, nil without a fleet
	builds []buildSample // per-op build timings (build workloads, traced)
	mu     sync.Mutex    // guards builds
}

// buildSample is one traced build: when it was posted, how long the POST
// waited and when the fleet granted its first lease.
type buildSample struct {
	seed    int64
	post    time.Duration
	waitFor time.Duration // POST to first granted lease; 0 without a fleet
}

// workload names a set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	setup func(e *env, rep int) (*rig, error)
	// layer is the characterization spec and backend the traced run's
	// core/sim/bitsim/lut probes use, so probe numbers describe the
	// workload's own netlist.
	layer   charSpec
	backend core.BackendKind
}

// env is what every workload's set-up gets.
type env struct {
	in    *inputs
	dir   string // scratch directory inside the checkout
	nproc int
	// refs caches the reference models the benchmark computes outside
	// every timed window and set-up; see env.prepare.
	refs map[string]*core.Model
}

var workloads = []workload{
	{
		name:    "char-event",
		why:     "event (golden reference) characterization of the 8x8 CSA multiplier: the event simulator does nearly all the work",
		setup:   setupCharEvent,
		layer:   charEventSpec,
		backend: core.BackendEvent,
	},
	{
		name:    "build-local",
		why:     "cache-missing bit-parallel builds over HTTP with checkpoints: pair generation, classify, merge and saves carry a real share",
		setup:   func(e *env, rep int) (*rig, error) { return setupBuild(e, rep, false) },
		layer:   buildSpec,
		backend: core.BackendBitParallel,
	},
	{
		name:    "build-fleet",
		why:     "the same builds through a fleet coordinator and one loopback worker: lease, heartbeat and upload RPCs and the ledger",
		setup:   func(e *env, rep int) (*rig, error) { return setupBuild(e, rep, true) },
		layer:   buildSpec,
		backend: core.BackendBitParallel,
	},
	{
		name:    "estimate-unary",
		why:     "unary estimates on three cached models: every request hits the LUT fast path, time is mostly net/http",
		setup:   func(e *env, rep int) (*rig, error) { return setupEstimate(e, rep, false) },
		layer:   estimateModels[0],
		backend: core.BackendBitParallel,
	},
	{
		name:    "estimate-stream",
		why:     "64-line NDJSON stream batches from one client on the same models: time is mostly parse, LUT lookup, render and the profiler",
		setup:   func(e *env, rep int) (*rig, error) { return setupEstimate(e, rep, true) },
		layer:   estimateModels[0],
		backend: core.BackendBitParallel,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newMeter builds, finalizes and meters a catalog netlist.
func newMeter(s charSpec) (*power.Meter, error) {
	mod, err := dwlib.Lookup(s.Module)
	if err != nil {
		return nil, err
	}
	nl := mod.Build(s.Width)
	if err := nl.Finalize(); err != nil {
		return nil, err
	}
	if err := nl.VerifyErr(); err != nil {
		return nil, err
	}
	return power.NewMeter(nl, sim.EventDriven)
}

// characterize runs core.Characterize for s at seed.
func characterize(s charSpec, seed int64, backend core.BackendKind, workers int) (*core.Model, error) {
	meter, err := newMeter(s)
	if err != nil {
		return nil, err
	}
	return core.Characterize(meter, s.name(), core.CharacterizeOptions{
		Patterns: s.Patterns, Seed: seed, Enhanced: s.Enhanced, Workers: workers, Backend: backend,
	})
}

func setupCharEvent(e *env, rep int) (*rig, error) {
	meter, err := newMeter(charEventSpec)
	if err != nil {
		return nil, err
	}
	opts := func(seed int64) core.CharacterizeOptions {
		return core.CharacterizeOptions{Patterns: charEventSpec.Patterns, Seed: seed,
			Workers: e.nproc, Backend: core.BackendEvent}
	}
	if _, err := core.Characterize(meter, charEventSpec.name(), opts(e.in.warmSeeds[rep])); err != nil {
		return nil, fmt.Errorf("warm-up characterization: %w", err)
	}
	r := &rig{clients: 1, perOp: charEventSpec.Patterns, chunk: 10, close: func() {}}
	r.op = func(_, i int) error {
		tm := r.tr.Load().begin("core.Characterize", 0, int64(i))
		m, err := core.Characterize(meter, charEventSpec.name(), opts(e.in.opSeeds[i]))
		tm.end()
		if err != nil {
			return err
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("model of seed %d: %w", e.in.opSeeds[i], err)
		}
		if i == 0 {
			ref, err := e.charRef()
			if err != nil {
				return err
			}
			return sameModel(m, ref)
		}
		return nil
	}
	return r, nil
}

// sameModel reports whether got and want serialize identically.
func sameModel(got, want *core.Model) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("model differs from the Workers=1 reference of the same seed")
	}
	return nil
}

// server is an in-process hdserve on a loopback listener.
type server struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	stop   context.CancelFunc // stops the fleet worker, if any
	worker chan struct{}      // closed when the fleet worker has returned
}

func startServer(r *rig, cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.New(cfg)
	srv := &server{s: s, url: "http://" + ln.Addr().String()}
	srv.hs = &http.Server{Handler: traceHandler(r, s.Handler())}
	go func() { _ = srv.hs.Serve(ln) }() // returns ErrServerClosed on shutdown
	return srv, nil
}

func (srv *server) shutdown() {
	if srv.stop != nil {
		srv.stop()
		<-srv.worker
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.hs.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = srv.s.Drain(ctx)
	srv.s.Close()
}

// traceHandler opens a server-side span for every request that carries
// a client span id, as a child of that span.
func traceHandler(r *rig, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tr.Load()
		parent := req.Header.Get(spanHeader)
		if tr == nil || parent == "" {
			next.ServeHTTP(w, req)
			return
		}
		pid, _ := strconv.ParseInt(parent, 10, 64) // the benchmark's own header
		op, _ := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
		tm := tr.begin("serve.handler"+req.URL.Path, pid, op)
		next.ServeHTTP(w, req)
		tm.end()
	})
}

// client is one closed-loop HTTP client with a reusable read buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClients(n int) []*client {
	tr := &http.Transport{MaxIdleConnsPerHost: n + 1}
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	}
	return out
}

// post sends body and returns the status and the response body, which
// stays valid until the client's next call. A traced call runs under a
// client span named name whose id travels to the handler span.
func (c *client) post(tr *tracer, name, url string, body []byte, op int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	tm := tr.begin(name, 0, op)
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(tm.id, 10))
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	tm.end()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// rpcCounter times and counts a fleet worker's coordinator RPCs. It is
// the worker's http.RoundTripper.
type rpcCounter struct {
	base       http.RoundTripper
	r          *rig
	op         atomic.Int64 // the build the RPCs serve, -1 between builds
	firstGrant atomic.Int64 // ns since tracer epoch of the op's first granted lease

	leaseRPCs, leasedShards, uploadBytes, retries atomic.Int64
}

func (t *rpcCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.r.tr.Load()
	kind := path.Base(req.URL.Path) // lease, heartbeat, upload
	tm := tr.begin("fleet."+kind, 0, t.op.Load())
	if kind == "upload" {
		t.uploadBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 {
		t.retries.Add(1)
	}
	if err == nil && kind == "lease" {
		t.leaseRPCs.Add(1)
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		var lr struct {
			Status string `json:"status"`
			Lease  *struct {
				Start int `json:"start"`
				End   int `json:"end"`
			} `json:"lease"`
		}
		if rerr == nil && json.Unmarshal(data, &lr) == nil && lr.Status == "lease" && lr.Lease != nil {
			t.leasedShards.Add(int64(lr.Lease.End - lr.Lease.Start))
			if tr != nil {
				t.firstGrant.CompareAndSwap(0, int64(time.Since(tr.epoch)))
			}
		}
	}
	tm.end()
	return resp, err
}

func setupBuild(e *env, rep int, withFleet bool) (*rig, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("build-%d", rep))
	for _, d := range []string{"ckpt", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, err
		}
	}
	r := &rig{clients: 1, perOp: buildSpec.Patterns * 2, chunk: 10} // basic and biased phases
	cfg := serve.Config{
		Backend:       core.BackendBitParallel,
		CharWorkers:   e.nproc,
		CheckpointDir: filepath.Join(dir, "ckpt"),
		ManifestDir:   filepath.Join(dir, "manifests"),
	}
	var coord *fleet.Coordinator
	if withFleet {
		coord = fleet.NewCoordinator(fleet.Config{Tick: 10 * time.Millisecond})
		cfg.Fleet = coord
	}
	srv, err := startServer(r, cfg)
	if err != nil {
		return nil, err
	}
	r.url = srv.url
	if withFleet {
		r.rpc = &rpcCounter{base: &http.Transport{}, r: r}
		r.rpc.op.Store(-1)
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: srv.url,
			Name:        "bench-worker",
			Workers:     e.nproc,
			Client:      &http.Client{Transport: r.rpc, Timeout: 30 * time.Second},
		})
		if err != nil {
			srv.shutdown()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		srv.stop, srv.worker = cancel, make(chan struct{})
		go func() {
			defer close(srv.worker)
			_ = w.Run(ctx) // returns the context's error once stopped
		}()
		for deadline := time.Now().Add(10 * time.Second); coord.LiveWorkers() < 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				srv.shutdown()
				return nil, errors.New("fleet worker did not register within 10s")
			}
		}
	}
	clients := newClients(1)
	r.close = func() {
		clients[0].hc.CloseIdleConnections()
		srv.shutdown()
		_ = os.RemoveAll(dir)
	}
	build := func(seed int64, op int64) (time.Duration, error) {
		tr := r.tr.Load()
		start := time.Now()
		code, body, err := clients[0].post(tr, "serve.build", srv.url+"/v1/models/build", buildSpec.buildBody(seed), op)
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"ready"`)) {
			return d, fmt.Errorf("build of seed %d: %d %s", seed, code, bytes.TrimSpace(body))
		}
		return d, nil
	}
	if _, err := build(e.in.warmSeeds[rep], -1); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up build: %w", err)
	}
	r.op = func(_, i int) error {
		if i >= len(e.in.opSeeds) {
			return errors.New("pre-generated build seeds exhausted")
		}
		seed := e.in.opSeeds[i]
		tr := r.tr.Load()
		var posted int64
		if r.rpc != nil && tr != nil {
			r.rpc.op.Store(int64(i))
			r.rpc.firstGrant.Store(0)
			posted = int64(time.Since(tr.epoch))
		}
		d, err := build(seed, int64(i))
		if err != nil {
			return err
		}
		if tr != nil {
			s := buildSample{seed: seed, post: d}
			if r.rpc != nil {
				if g := r.rpc.firstGrant.Load(); g > posted {
					s.waitFor = time.Duration(g - posted)
				}
				r.rpc.op.Store(-1)
			}
			r.mu.Lock()
			r.builds = append(r.builds, s)
			r.mu.Unlock()
		}
		if i == 0 {
			ref, err := e.buildRef()
			if err != nil {
				return err
			}
			return checkFirstBuild(clients[0], srv.url, seed, ref)
		}
		return nil
	}
	return r, nil
}

// fixedRequest is the estimate the first timed build must answer like
// its reference model.
func fixedRequest(s charSpec, seed int64) estReq {
	m := s.inputBits()
	r := estReq{Hd: make([]int, estimateCycles), SZ: make([]int, estimateCycles)}
	for j := range r.Hd {
		r.Hd[j] = 1 + (j*7)%m
		r.SZ[j] = (j * 3) % (m - r.Hd[j] + 1)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"model":{"module":%q,"width":%d,"seed":%d}`, s.Module, s.Width, seed)
	writeInts(&b, "hd", r.Hd)
	writeInts(&b, "stable_zeros", r.SZ)
	b.WriteByte('}')
	r.Body = b.Bytes()
	return r
}

func checkFirstBuild(c *client, url string, seed int64, ref *core.Model) error {
	req := fixedRequest(buildSpec, seed)
	code, body, err := c.post(nil, "", url+"/v1/estimate", req.Body, -1)
	if err != nil {
		return fmt.Errorf("first-build estimate: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("first-build estimate: %d %s", code, bytes.TrimSpace(body))
	}
	return checkAnswer(body, req.total(ref))
}

// checkAnswer reads the total of one estimate answer and compares it
// with want. Only the scalar fields the check needs are read, by a scan
// that allocates little, so the client adds few allocations to the
// server's and later versions may add response fields.
func checkAnswer(body []byte, want float64) error {
	if v, ok := jsonScalar(body, "error"); ok {
		return fmt.Errorf("estimate answer is an error: %s", v)
	}
	if v, ok := jsonScalar(body, "degraded"); ok && string(v) == "true" {
		return errors.New("estimate answered by a degraded fallback model")
	}
	v, ok := jsonScalar(body, "total")
	if !ok {
		return fmt.Errorf("estimate answer without a total: %q", body)
	}
	got, err := strconv.ParseFloat(string(v), 64)
	if err != nil {
		return fmt.Errorf("estimate total %q: %w", v, err)
	}
	if got != want {
		return fmt.Errorf("estimate total %v, reference model says %v", got, want)
	}
	return nil
}

// jsonScalar returns the raw text of the scalar value of the first
// "key": member in body (a string value keeps its quotes).
func jsonScalar(body []byte, key string) ([]byte, bool) {
	i := bytes.Index(body, []byte(`"`+key+`"`))
	if i < 0 {
		return nil, false
	}
	rest := bytes.TrimLeft(body[i+len(key)+2:], " \t\r\n")
	if len(rest) == 0 || rest[0] != ':' {
		return nil, false
	}
	rest = bytes.TrimLeft(rest[1:], " \t\r\n")
	end := bytes.IndexAny(rest, ",}\n")
	if end < 0 {
		end = len(rest)
	}
	return bytes.TrimRight(rest[:end], " \t\r"), true
}

func setupEstimate(e *env, rep int, stream bool) (*rig, error) {
	clients := e.nproc
	if stream {
		// With two clients on two processors a batch takes either ~0.4 or
		// ~0.7 ms, and the share of each mode changes from run to run, so
		// p50_ms falls between them anywhere from 0.42 to 0.71 ms. One
		// client gives one broad mode whose median repeats.
		clients = 1
	}
	r := &rig{clients: clients}
	srv, err := startServer(r, serve.Config{Backend: core.BackendBitParallel, CharWorkers: e.nproc})
	if err != nil {
		return nil, err
	}
	r.url = srv.url
	cs := newClients(clients)
	r.close = func() {
		cs[0].hc.CloseIdleConnections()
		srv.shutdown()
	}
	for mi, s := range estimateModels {
		code, body, err := cs[0].post(nil, "", srv.url+"/v1/models/build", s.buildBody(e.in.modelSeeds[mi]), -1)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%d %s", code, bytes.TrimSpace(body))
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("building %s: %w", s.name(), err)
		}
	}
	refs, err := e.estimateRefs()
	if err != nil {
		r.close()
		return nil, err
	}
	want := make([]float64, len(e.in.pool))
	for i := range e.in.pool {
		want[i] = e.in.pool[i].total(refs[e.in.pool[i].Model])
	}
	unary := func(c, i int) error {
		k := i % len(e.in.pool)
		code, body, err := cs[c].post(r.tr.Load(), "http.unary", srv.url+"/v1/estimate", e.in.pool[k].Body, int64(i))
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("estimate: %d %s", code, bytes.TrimSpace(body))
		}
		return checkAnswer(body, want[k])
	}
	batches := make([][]byte, len(e.in.pool)/streamLines)
	for b := range batches {
		batches[b] = e.in.streamBody(b)
	}
	streamOp := func(c, i int) error {
		b := i % len(batches)
		code, body, err := cs[c].post(r.tr.Load(), "http.stream", srv.url+"/v1/estimate/stream", batches[b], int64(i))
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("stream: %d %s", code, bytes.TrimSpace(body))
		}
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		if len(lines) != streamLines {
			return fmt.Errorf("stream answered %d lines for %d requests", len(lines), streamLines)
		}
		for j, line := range lines {
			if err := checkAnswer(line, want[(b*streamLines+j)%len(want)]); err != nil {
				return fmt.Errorf("stream line %d: %w", j, err)
			}
		}
		return nil
	}
	r.op, r.other, r.otherOps, r.perOp, r.chunk = unary, streamOp, passStream, estimateCycles, 1000
	if stream {
		r.op, r.other, r.otherOps, r.perOp, r.chunk = streamOp, unary, passUnary, estimateCycles*streamLines, 200
	}
	// Warm-up: every pooled request once per client, both planes.
	for c := 0; c < clients; c++ {
		for i := 0; i < len(e.in.pool); i++ {
			if err := unary(c, i); err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		for b := range batches {
			if err := streamOp(c, b); err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	runtime.GC()
	return r, nil
}
