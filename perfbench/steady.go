package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness report reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSteady runs every workload k times, seeds 1..k, each in a fresh
// process of this binary, and prints each metric's median and quartiles;
// with trace 0, each end-to-end spread is set against its bound from
// BENCHMARK.json. The runs go seed by seed, every workload once per seed,
// so a slowdown of the host lasting minutes spreads over all workloads
// instead of landing on the seeds of one.
func runSteady(k, seconds, trace int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("host num_cpu=%d GOMAXPROCS=%d go=%s seeds=1..%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), k, seconds, trace)
	failed := false
	vals := make(map[string]map[string][]float64) // workload -> metric -> by seed
	units := make(map[string]string)
	steal := make(map[string][]float64) // workload -> host steal share by seed
	for seed := 1; seed <= k; seed++ {
		for _, w := range bf.Workloads {
			var stdout bytes.Buffer
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			t0 := cpuTimes()
			runErr := cmd.Run()
			stolen := stealShare(t0, cpuTimes())
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil {
				fmt.Printf("%s seed %d: run failed: %v\n", w.Name, seed, runErr)
				failed = true
				continue
			}
			if vals[w.Name] == nil {
				vals[w.Name] = make(map[string][]float64)
			}
			steal[w.Name] = append(steal[w.Name], stolen)
			for name, m := range res.Metrics {
				vals[w.Name][name] = append(vals[w.Name][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.Name, seed)
		}
	}
	for _, w := range bf.Workloads {
		fmt.Printf("\n%s\n%-34s %-10s %12s %12s %12s %8s %7s %s\n", w.Name,
			"metric", "unit", "q1", "median", "q3", "spread", "bound", "")
		for _, name := range sortedKeys(vals[w.Name]) {
			v := vals[w.Name][name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			bound, has := bounds[name]
			verdict := ""
			switch {
			case !has:
			case spread > bound:
				verdict, failed = "OVER BOUND", true
			case spread > bound/3:
				verdict = "above bound/3"
			default:
				verdict = "ok"
			}
			bs := ""
			if has {
				bs = fmt.Sprintf("%.3f", bound)
			}
			fmt.Printf("%-34s %-10s %12.5g %12.5g %12.5g %8.4f %7s %s\n",
				name, units[name], q1, q2, q3, spread, bs, verdict)
			fmt.Printf("  by seed:")
			for _, x := range v {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
		fmt.Printf("host steal by seed:")
		for _, x := range steal[w.Name] {
			fmt.Printf(" %.3f", x)
		}
		fmt.Println()
	}
	if failed {
		return fmt.Errorf("a run failed or a spread exceeded its bound")
	}
	return nil
}

// cpuTimes returns the host-wide CPU time counters of the "cpu" line of
// /proc/stat (user nice system idle iowait irq softirq steal ...), or
// nil where there is none.
func cpuTimes() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]float64, len(f)-1)
	for i, v := range f[1:] {
		out[i], _ = strconv.ParseFloat(v, 64)
	}
	return out
}

// stealShare is the share of CPU time between two cpuTimes samples that
// the hypervisor gave to other guests. A run whose figures are off
// with a high share met a busy host, not a slower program.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return math.NaN()
	}
	var total float64
	for i := 0; i < 8; i++ { // guest time is already in user and nice
		total += b[i] - a[i]
	}
	if total <= 0 {
		return math.NaN()
	}
	return (b[7] - a[7]) / total
}
