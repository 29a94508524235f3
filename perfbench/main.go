// Command perfbench is the repository benchmark: closed-loop workloads
// over the characterization engine, the model server, the fleet and the
// estimate plane, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md.
//
//	go run . --workload build-local --seed 1 --seconds 20 --trace 0
//	go run . --steady 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed output check makes
// the command exit non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdpower/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is printed before the result so numbers from different hosts
// are never compared as absolutes.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 20, "length of the timed window (BENCHMARK.json run_seconds)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "run every workload this many times (seeds 1..n) and report spreads against BENCHMARK.json")
	)
	flag.Parse()
	if *steady > 0 {
		if err := runSteady(*steady, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	info := hostInfo{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	line, _ := json.Marshal(map[string]hostInfo{"host": info})
	fmt.Println(string(line))

	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err == nil {
		dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch dir:", err)
		os.Exit(2)
	}
	e := &env{in: genInputs(*seed), dir: dir, nproc: runtime.NumCPU()}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, e, float64(*seconds), fmt.Sprintf(".bench_build/spans/%s-seed%d.json", w.name, *seed))
	} else {
		res, err = runEndToEnd(w, e, float64(*seconds))
	}
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			os.Exit(2)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Reference models, computed outside every timed window and set-up and
// cached per run.
func (e *env) charRef() (*core.Model, error) {
	return e.cached("char", func() (*core.Model, error) {
		return characterize(charEventSpec, e.in.opSeeds[0], core.BackendEvent, 1)
	})
}

func (e *env) buildRef() (*core.Model, error) {
	return e.cached("build", func() (*core.Model, error) {
		return characterize(buildSpec, e.in.opSeeds[0], core.BackendBitParallel, e.nproc)
	})
}

func (e *env) estimateRefs() ([]*core.Model, error) {
	out := make([]*core.Model, len(estimateModels))
	for i, s := range estimateModels {
		m, err := e.cached(fmt.Sprintf("estimate-%d", i), func() (*core.Model, error) {
			return characterize(s, e.in.modelSeeds[i], core.BackendBitParallel, e.nproc)
		})
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (e *env) cached(key string, f func() (*core.Model, error)) (*core.Model, error) {
	if m, ok := e.refs[key]; ok {
		return m, nil
	}
	m, err := f()
	if err != nil {
		return nil, fmt.Errorf("reference model %s: %w", key, err)
	}
	if e.refs == nil {
		e.refs = make(map[string]*core.Model)
	}
	e.refs[key] = m
	return m, nil
}

// prepare computes the reference models workload w checks against.
func (e *env) prepare(w workload) error {
	var err error
	switch {
	case w.name == "char-event":
		_, err = e.charRef()
	case strings.HasPrefix(w.name, "build-"):
		_, err = e.buildRef()
	default:
		_, err = e.estimateRefs()
	}
	return err
}

// minChunks is the fewest chunk rates ops_per_s is a median of.
const minChunks = 10

// window is one timed closed-loop run.
type window struct {
	ops, failed int
	next        int // first op index after the window
	lat         []time.Duration
	rates       []float64 // ops/s of each run of r.chunk consecutive completions
	mallocs     uint64
	errs        []string
}

// measure runs r's clients in a closed loop from op index start until
// the window has lasted seconds and completed at least minOps ops. A
// window that cannot reach minOps stops 3*seconds (at least 20s) late.
func measure(r *rig, start int, seconds float64, minOps int) window {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	hardStop := deadline.Add(max(time.Duration(3*seconds*float64(time.Second)), 20*time.Second))
	var next, done atomic.Int64
	next.Store(int64(start))
	var mu sync.Mutex
	var w window
	marks := make([]time.Duration, 0, 1024)
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		lat := newReservoir(int64(c))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var failed int
			var errs []string
			for {
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && done.Load() >= int64(minOps)) {
					break
				}
				i := int(next.Add(1) - 1)
				s := time.Now()
				err := r.op(c, i)
				d := time.Since(s)
				if n := done.Add(1); n%int64(r.chunk) == 0 {
					mu.Lock()
					marks = append(marks, time.Since(t0))
					mu.Unlock()
				}
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
					}
					continue
				}
				lat.add(d)
			}
			mu.Lock()
			w.lat = append(w.lat, lat.s...)
			w.failed += failed
			w.errs = append(w.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	prev := time.Duration(0)
	for _, m := range marks {
		w.rates = append(w.rates, float64(r.chunk)/(m-prev).Seconds())
		prev = m
	}
	w.ops = int(done.Load())
	w.next = int(next.Load())
	w.mallocs = m1.Mallocs - m0.Mallocs
	return w
}

// reservoirSize bounds the latency samples one client keeps, so the
// benchmark's own memory does not grow with the program's throughput.
const reservoirSize = 1 << 16

// reservoir keeps a uniform sample of at most reservoirSize latencies
// (Vitter's algorithm R); below the cap it keeps every one.
type reservoir struct {
	n   int64
	s   []time.Duration
	rng *rand.Rand
}

func newReservoir(seed int64) *reservoir {
	return &reservoir{s: make([]time.Duration, 0, reservoirSize), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(d time.Duration) {
	r.n++
	if len(r.s) < cap(r.s) {
		r.s = append(r.s, d)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(len(r.s)) {
		r.s[j] = d
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// process's current resident set, so peakRSSMB covers only what runs
// after it (Linux: writing 5 to /proc/self/clear_refs resets VmHWM).
func resetPeakRSS() error {
	//hdlint:allow atomicwrite a write to a /proc control file is a kernel request, not a file to keep whole
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// setupTimed sets w up and returns the rig and how long that took.
func setupTimed(w workload, e *env, rep int) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := w.setup(e, rep)
	return r, time.Since(t0), err
}

// runEndToEnd is the untraced run: set up setupRepeats times (setup_s is
// the median), then one timed window on the last set-up.
func runEndToEnd(w workload, e *env, seconds float64) (*result, error) {
	if err := e.prepare(w); err != nil {
		return nil, err
	}
	var r *rig
	var setups []float64
	for rep := 0; rep < setupRepeats; rep++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if r, d, err = setupTimed(w, e, rep); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		setups = append(setups, d.Seconds())
	}
	// Return the set-ups' and reference models' memory to the OS and
	// restart the high-water mark, so peak_rss_mb is the timed window's.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		r.close()
		return nil, fmt.Errorf("peak_rss_mb: %w", err)
	}
	win := measure(r, 0, seconds, minSamples(0.9))
	rss, rssErr := peakRSSMB()
	r.close()
	if rssErr != nil {
		return nil, fmt.Errorf("peak_rss_mb: %w", rssErr)
	}
	for _, s := range win.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed", s)
	}
	res := &result{Correct: win.failed == 0, Attempted: win.ops, Failed: win.failed,
		Metrics: make(map[string]metric)}
	lat := millis(win.lat)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}} {
		v, err := percentile(lat, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		res.Metrics[p.name] = metric{v, "ms"}
	}
	if len(win.rates) < minChunks {
		return nil, fmt.Errorf("ops_per_s: %d chunks of %d ops, want >= %d", len(win.rates), r.chunk, minChunks)
	}
	rate := median(win.rates)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["ops_per_s"] = metric{rate, "1/s"}
	res.Metrics["patterns_per_s"] = metric{rate * float64(r.perOp), "1/s"}
	res.Metrics["allocs_per_op"] = metric{float64(win.mallocs) / float64(win.ops), "allocs/op"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	return res, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
