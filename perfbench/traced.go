package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"hdpower/internal/core"
)

// endToEnd and perLayer are the metrics a run reports, with their units;
// BENCHMARK.json lists the same names (pinned by a test).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"patterns_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_op", "allocs/op"},
}

var perLayer = []struct{ name, unit string }{
	{"core.pairgen.ns_per_pair", "ns"},
	{"core.classify.ns_per_pair", "ns"},
	{"core.shard.ms", "ms"},
	{"core.merge.us_per_shard", "us"},
	{"core.checkpoint.ms_per_save", "ms"},
	{"core.checkpoint.kb_per_save", "KiB"},
	{"core.checkpoint.saves_per_build", "count"},
	{"sim.charges.us_per_pair", "us"},
	{"sim.charges.allocs_per_pair", "allocs"},
	{"bitsim.charges.us_per_batch", "us"},
	{"bitsim.charges.allocs_per_batch", "allocs"},
	{"serve.build.self_ms", "ms"},
	{"fleet.dispatch_wait_ms", "ms"},
	{"fleet.lease.ms", "ms"},
	{"fleet.lease.useful_ratio", "ratio"},
	{"fleet.heartbeats_per_build", "count"},
	{"fleet.upload.ms", "ms"},
	{"fleet.upload.kb_per_shard", "KiB"},
	{"fleet.rpc_retries", "count"},
	{"serve.handler.unary_us", "us"},
	{"serve.handler.stream_us_per_line", "us"},
	{"nethttp.unary_us", "us"},
	{"serve.fastpath_ratio", "ratio"},
	{"lut.estimate.ns_per_cycle", "ns"},
	{"telemetry.record.ns", "ns"},
	{"trace.overhead_pct", "%"},
}

// Sizes of the short traced passes that measure layers off the traced
// workload's own path.
const (
	passBuilds = 6
	passUnary  = 256
	passStream = 16
	selfBuilds = 5 // builds re-run as a direct core.Characterize for serve.build.self_ms
)

// runTraced is the traced run. It sets the workload up once and runs two
// half-length windows on it, untraced then traced; the gap between their
// median op latencies is the tracing overhead. Layers on the workload's
// path are measured from the traced window; layers off it from short
// traced passes of the workload that owns them; core, sim, bitsim, lut
// and telemetry from probes on the workload's own netlist. Spans are
// dumped to spansPath.
func runTraced(w workload, e *env, seconds float64, spansPath string) (*result, error) {
	tr := newTracer()
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	out := make(map[string]float64)
	tally := func(win window) {
		res.Attempted += win.ops
		res.Failed += win.failed
		for _, s := range win.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed", s)
		}
	}

	if err := e.prepare(w); err != nil {
		return nil, err
	}
	r, _, err := setupTimed(w, e, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	plain := measure(r, 0, seconds/2, minSamples(0.5))
	r.tr.Store(tr)
	traced := measure(r, plain.next, seconds/2, minSamples(0.5))
	tally(plain)
	tally(traced)
	p0, err0 := percentile(millis(plain.lat), 0.5)
	p1, err1 := percentile(millis(traced.lat), 0.5)
	if err0 != nil || err1 != nil {
		r.close()
		return nil, fmt.Errorf("tracing overhead: %v %v", err0, err1)
	}
	out["trace.overhead_pct"] = 100 * (p1/p0 - 1)
	if err := collect(w.name, r, e, out); err != nil {
		r.close()
		return nil, err
	}
	if r.other != nil {
		tally(runOther(r))
	}
	r.close()

	owners := []string{"build-local", "build-fleet", "estimate-unary"}
	for _, name := range owners {
		if name == w.name || (strings.HasPrefix(name, "estimate") && r.other != nil) {
			continue
		}
		win, err := pass(name, e, tr, out)
		if err != nil {
			return nil, fmt.Errorf("traced pass of %s: %w", name, err)
		}
		tally(win)
	}

	probes, err := probeLayers(w, e, tr)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		out[k] = v
	}
	lt := selfTimes(tr.snapshot())
	mean := func(name string, total bool) time.Duration {
		l := lt[name]
		if l.Count == 0 {
			return 0
		}
		if total {
			return l.Total / time.Duration(l.Count)
		}
		return l.Self / time.Duration(l.Count)
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	out["serve.handler.unary_us"] = us(mean("serve.handler/v1/estimate", true))
	out["nethttp.unary_us"] = us(mean("http.unary", false))
	out["serve.handler.stream_us_per_line"] = us(mean("serve.handler/v1/estimate/stream", true)) / streamLines
	out["fleet.lease.ms"] = us(mean("fleet.lease", true)) / 1e3
	out["fleet.upload.ms"] = us(mean("fleet.upload", true)) / 1e3

	for _, m := range perLayer {
		v, ok := out[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.Correct = res.Failed == 0
	if err := tr.dump(spansPath); err != nil {
		return nil, fmt.Errorf("dumping spans: %w", err)
	}
	return res, nil
}

// runOther runs the estimate rig's other plane for r.otherOps ops.
func runOther(r *rig) window {
	r.op, r.other = r.other, r.op
	defer func() { r.op, r.other = r.other, r.op }()
	return measure(r, 0, 0, r.otherOps)
}

// pass sets the named workload up and runs a short traced pass of it,
// collecting the layers it owns into out.
func pass(name string, e *env, tr *tracer, out map[string]float64) (window, error) {
	w, _ := findWorkload(name)
	if err := e.prepare(w); err != nil {
		return window{}, err
	}
	r, _, err := setupTimed(w, e, 0)
	if err != nil {
		return window{}, err
	}
	defer r.close()
	r.tr.Store(tr)
	n := passBuilds
	if r.other != nil {
		n = passUnary
	}
	win := measure(r, 0, 0, n)
	if r.other != nil {
		o := runOther(r)
		win.ops += o.ops
		win.failed += o.failed
		win.errs = append(win.errs, o.errs...)
	}
	return win, collect(name, r, e, out)
}

// collect derives the layers a workload's rig owns from its server's
// /metrics counters and the rig's own accounting.
func collect(name string, r *rig, e *env, out map[string]float64) error {
	if r.url == "" {
		return nil
	}
	ctr, err := scrape(r.url)
	if err != nil {
		return err
	}
	builds := ctr["hdserve_model_builds_total"]
	switch name {
	case "build-local":
		out["core.checkpoint.saves_per_build"] = ctr["hdserve_checkpoint_saves_total"] / builds
		var self []float64
		for _, b := range r.builds[:min(selfBuilds, len(r.builds))] {
			t0 := time.Now()
			if _, err := characterize(buildSpec, b.seed, core.BackendBitParallel, e.nproc); err != nil {
				return err
			}
			self = append(self, float64(b.post-time.Since(t0))/1e6)
		}
		out["serve.build.self_ms"] = median(self)
	case "build-fleet":
		var waits []float64
		for _, b := range r.builds {
			waits = append(waits, float64(b.waitFor)/1e6)
		}
		out["fleet.dispatch_wait_ms"] = median(waits)
		out["fleet.lease.useful_ratio"] = ctr["hdfleet_leases_granted_total"] / float64(r.rpc.leaseRPCs.Load())
		out["fleet.heartbeats_per_build"] = ctr["hdfleet_heartbeats_total"] / builds
		out["fleet.upload.kb_per_shard"] = float64(r.rpc.uploadBytes.Load()) / 1024 / float64(r.rpc.leasedShards.Load())
		out["fleet.rpc_retries"] = float64(r.rpc.retries.Load())
	default: // estimate planes
		var all float64
		for k, v := range ctr {
			if strings.HasPrefix(k, "hdserve_estimate_served_total{") {
				all += v
			}
		}
		out["serve.fastpath_ratio"] = ctr[`hdserve_estimate_served_total{path="lut"}`] / all
	}
	return nil
}

// scrape reads a server's /metrics text into series -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
