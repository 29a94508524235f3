package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{250, 0.9, true, 225},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g): err = %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
		if c.ok {
			beyond := 0
			for _, v := range seq(c.n) {
				if v > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("percentile(n=%d, q=%g) = %g has %d samples beyond it", c.n, c.q, got, beyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children cover [10, 50]; a third runs past the
		// parent's end, so only [90, 100] of it counts.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	lt := selfTimes(spans)
	want := map[string]layerTime{
		"op":         {Count: 1, Total: 100, Self: 50},
		"child":      {Count: 2, Total: 50, Self: 44},
		"late":       {Count: 1, Total: 30, Self: 30},
		"grandchild": {Count: 1, Total: 6, Self: 6},
	}
	for name, w := range want {
		if got := lt[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.begin("x", 0, 0).end() // must not panic
	real := newTracer()
	tm := real.begin("x", 0, 7)
	time.Sleep(time.Millisecond)
	tm.end()
	s := real.snapshot()
	if len(s) != 1 || s[0].Op != 7 || s[0].End <= s[0].Start {
		t.Fatalf("spans = %+v", s)
	}
}

// inputBytes serializes every generated input.
func inputBytes(in *inputs) []byte {
	var b bytes.Buffer
	for _, s := range [][]int64{in.opSeeds, in.warmSeeds, in.modelSeeds} {
		for _, v := range s {
			_ = binary.Write(&b, binary.LittleEndian, v)
		}
	}
	for i := range in.pool {
		b.Write(in.pool[i].Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := inputBytes(genInputs(1)), inputBytes(genInputs(1))
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 1 differ")
	}
	if bytes.Equal(a, inputBytes(genInputs(2))) {
		t.Fatal("seeds 1 and 2 generate identical inputs")
	}
	in := genInputs(1)
	if len(in.pool)%streamLines != 0 {
		t.Fatalf("pool of %d does not split into %d-line batches", len(in.pool), streamLines)
	}
	for _, r := range in.pool {
		if !json.Valid(r.Body) {
			t.Fatalf("invalid request body %s", r.Body)
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	ok := []byte(`{"key": "m/w8/s1", "cycles": 2, "estimates": [1.5, 2.25], "total": 3.75, "mean": 1.875, "later_field": {"x": 1}}`)
	if err := checkAnswer(ok, 3.75); err != nil {
		t.Errorf("matching answer: %v", err)
	}
	for name, c := range map[string]struct {
		body string
		want float64
	}{
		"mismatch": {`{"total":3.75}`, 3.5},
		"degraded": {`{"total":3.75,"degraded":true,"fallback":"seed"}`, 3.75},
		"error":    {`{"error":"model not found"}`, 0},
		"no total": {`{"mean":1}`, 0},
	} {
		if err := checkAnswer([]byte(c.body), c.want); err == nil {
			t.Errorf("%s: answer %s accepted", name, c.body)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchBenchmarkJSON pins the metric and workload names a
// run reports to the ones BENCHMARK.json declares, and their syntax.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s %s unit %q does not match %s", kind, name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check("end-to-end", m.name, m.unit)
		if bf.EndToEnd[i].Name != m.name || bf.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
				i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, m.name, m.unit)
		}
		if b := bf.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.name, b)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check("per-layer", m.name, m.unit)
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
				i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.name, "-")
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}
