package hdpower

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/experiments"
	"hdpower/internal/stimuli"
)

// benchSuite is shared across benchmarks so each module instance is
// characterized once; the per-iteration cost is the experiment's own
// evaluation work, which is what the paper's tables measure.
var (
	benchOnce  sync.Once
	benchShare *experiments.Suite
)

func benchSuite() *experiments.Suite {
	benchOnce.Do(func() {
		cfg := experiments.Quick()
		cfg.EvalPatterns = 1500
		cfg.CharPatterns = 3000
		benchShare = experiments.New(cfg)
	})
	return benchShare
}

// BenchmarkFigure1 regenerates Figure 1: basic coefficients p_i with
// error bars for the 16-input-bit variants of the five paper modules.
func BenchmarkFigure1(b *testing.B) {
	s := benchSuite()
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		total = res.Modules[0].TotalEps
	}
	b.ReportMetric(total*100, "total-eps-%")
}

// BenchmarkFigure2 regenerates Figure 2: basic vs enhanced coefficients
// for the 8x8 CSA multiplier.
func BenchmarkFigure2(b *testing.B) {
	s := benchSuite()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		spread = res.Spread(3)
	}
	b.ReportMetric(spread*100, "hd3-spread-%")
}

// BenchmarkTable1 regenerates Table 1: basic-model estimation errors for
// every module and data type.
func BenchmarkTable1(b *testing.B) {
	s := benchSuite()
	var avgI, avgV float64
	for i := 0; i < b.N; i++ {
		res, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		avgI = res.AvgAverage[stimuli.TypeRandom]
		avgV = res.AvgAverage[stimuli.TypeCounter]
	}
	b.ReportMetric(avgI, "avg-eps-I-%")
	b.ReportMetric(avgV, "avg-eps-V-%")
}

// BenchmarkTable2 regenerates Table 2: basic vs enhanced model on the CSA
// multiplier.
func BenchmarkTable2(b *testing.B) {
	s := benchSuite()
	var basicV, enhV float64
	for i := 0; i < b.N; i++ {
		res, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.DataType == stimuli.TypeCounter {
				basicV, enhV = math.Abs(row.AvgBasic), math.Abs(row.AvgEnhanced)
			}
		}
	}
	b.ReportMetric(basicV, "basic-eps-V-%")
	b.ReportMetric(enhV, "enhanced-eps-V-%")
}

// BenchmarkFigure4 regenerates Figure 4: instance vs regression
// coefficients over the prototype widths.
func BenchmarkFigure4(b *testing.B) {
	s := benchSuite()
	var series int
	for i := 0; i < b.N; i++ {
		res, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		series = len(res.Series)
	}
	b.ReportMetric(float64(series), "series")
}

// BenchmarkTable3 regenerates Table 3: coefficient and estimation errors
// for the ALL/SEC/THI regression sets.
func BenchmarkTable3(b *testing.B) {
	s := benchSuite()
	var worstParamErr float64
	for i := 0; i < b.N; i++ {
		res, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		worstParamErr = 0
		for _, row := range res.Rows {
			if row.ParamErrAvg > worstParamErr {
				worstParamErr = row.ParamErrAvg
			}
		}
	}
	b.ReportMetric(worstParamErr, "worst-param-err-%")
}

// BenchmarkFigure6 regenerates Figure 6: distribution-weighted power vs
// power at the average Hamming-distance.
func BenchmarkFigure6(b *testing.B) {
	s := benchSuite()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		gap = math.Abs(res.AvgHdError())
	}
	b.ReportMetric(gap, "avgHd-err-%")
}

// BenchmarkFigure9 regenerates Figure 9: extracted vs analytic
// Hamming-distance distribution of the speech stream.
func BenchmarkFigure9(b *testing.B) {
	s := benchSuite()
	var tv float64
	for i := 0; i < b.N; i++ {
		res, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		tv = res.TotalVariation
	}
	b.ReportMetric(tv, "total-variation")
}

// BenchmarkEstimatorStudy regenerates the extension table comparing all
// average-power estimators (cycle Hd, analytic distribution, average Hd,
// DBT baseline).
func BenchmarkEstimatorStudy(b *testing.B) {
	s := benchSuite()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := s.EstimatorStudy()
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkEngineAblation regenerates the glitch-power ablation.
func BenchmarkEngineAblation(b *testing.B) {
	s := benchSuite()
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := s.EngineAblation()
		if err != nil {
			b.Fatal(err)
		}
		share = res.GlitchShare
	}
	b.ReportMetric(share*100, "glitch-share-%")
}

// BenchmarkZClusterAblation regenerates the enhanced-model clustering
// trade-off study.
func BenchmarkZClusterAblation(b *testing.B) {
	s := benchSuite()
	var coefs int
	for i := 0; i < b.N; i++ {
		res, err := s.ZClusterAblation()
		if err != nil {
			b.Fatal(err)
		}
		coefs = res.Rows[len(res.Rows)-1].Coefficients
	}
	b.ReportMetric(float64(coefs), "smallest-model-coefs")
}

// BenchmarkAdaptationStudy regenerates the LMS adaptation study (paper
// ref. [4]).
func BenchmarkAdaptationStudy(b *testing.B) {
	s := benchSuite()
	var after float64
	for i := 0; i < b.N; i++ {
		res, err := s.AdaptationStudy()
		if err != nil {
			b.Fatal(err)
		}
		after = math.Abs(res.ErrAfter)
	}
	b.ReportMetric(after, "adapted-eps-%")
}

// BenchmarkPortStudy regenerates the port-resolved model comparison.
func BenchmarkPortStudy(b *testing.B) {
	s := benchSuite()
	var frozen float64
	for i := 0; i < b.N; i++ {
		res, err := s.PortStudy()
		if err != nil {
			b.Fatal(err)
		}
		frozen = math.Abs(res.PortFrozen)
	}
	b.ReportMetric(frozen, "port-frozen-eps-%")
}

// BenchmarkBudgetStudy regenerates the characterization-budget
// convergence sweep.
func BenchmarkBudgetStudy(b *testing.B) {
	s := benchSuite()
	var drift float64
	for i := 0; i < b.N; i++ {
		res, err := s.BudgetStudy()
		if err != nil {
			b.Fatal(err)
		}
		drift = res.Rows[0].MaxCoefDrift
	}
	b.ReportMetric(drift*100, "smallest-budget-drift-%")
}

// BenchmarkRectStudy regenerates the eq. (8) rectangular regression
// study.
func BenchmarkRectStudy(b *testing.B) {
	s := benchSuite()
	var meanErr float64
	for i := 0; i < b.N; i++ {
		res, err := s.RectStudy()
		if err != nil {
			b.Fatal(err)
		}
		meanErr = res.AvgRelErr
	}
	b.ReportMetric(meanErr, "rect-mean-err-%")
}

// BenchmarkCharacterize measures the cost of characterizing one 8x8 CSA
// multiplier model from scratch — the per-prototype cost of Section 5's
// prototype sets.
func BenchmarkCharacterize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nl, err := Build("csa-multiplier", 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Characterize(nl, "bench", CharacterizeOptions{Patterns: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeParallel measures sharded-characterization
// throughput across worker counts on the 16x16 CSA multiplier. The fitted
// model is bit-identical for every worker count (see core.Characterize);
// only the patterns/sec metric moves. CI stores this as
// BENCH_characterize.json via `make bench-char` and gates regressions
// with cmd/benchcmp.
//
// Workload sizing matters here: worker scaling is only visible once each
// worker owns several full 128-pattern shards and per-pattern simulation
// work dwarfs shard setup and ordered merging. 5120 patterns = 40 full
// shards (5 per worker at 8 workers) over a ~2.2k-gate netlist; the
// meter is built once outside the timed region so its construction cost
// doesn't serialize the measurement. The earlier shape (2000 patterns,
// meter built per iteration) was too small to amortize the fan-out and
// benchmarked flat at every worker count.
//
// Expected shape on an unloaded n-core host: patterns/sec grows
// near-linearly up to min(workers, n) and flattens beyond; on a
// single-core host the whole curve is flat (the workers only time-slice).
// CI enforces >1.5x at workers=8 vs workers=1 on its multi-core runners
// via `benchcmp -min-scale 1.5`.
func BenchmarkCharacterizeParallel(b *testing.B) {
	const patterns = 5120
	nl, err := Build("csa-multiplier", 16)
	if err != nil {
		b.Fatal(err)
	}
	meter, err := NewMeter(nl)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Characterize(meter, "bench", core.CharacterizeOptions{
					Patterns: patterns, Seed: 1, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(patterns)*float64(b.N)/b.Elapsed().Seconds(), "patterns/sec")
		})
	}
}

// BenchmarkCharacterizeBitParallel is BenchmarkCharacterizeParallel with
// the 64-lane bit-parallel backend: same module, pattern budget and shard
// plan, so the patterns/sec metrics are directly comparable between the
// two benchmark families. The workers=1 row against the event backend's
// workers=1 row is the single-core speedup the bit-parallel engine exists
// for (~7x on a 2-CPU host; CI gates >=5x via `benchcmp -min-speedup`,
// leaving headroom for noisy shared runners).
func BenchmarkCharacterizeBitParallel(b *testing.B) {
	const patterns = 5120
	nl, err := Build("csa-multiplier", 16)
	if err != nil {
		b.Fatal(err)
	}
	meter, err := NewMeter(nl)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Characterize(meter, "bench", core.CharacterizeOptions{
					Patterns: patterns, Seed: 1, Workers: workers,
					Backend: core.BackendBitParallel,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(patterns)*float64(b.N)/b.Elapsed().Seconds(), "patterns/sec")
		})
	}
}

// BenchmarkSimulateCycle measures raw event-driven simulation throughput
// on the largest paper module (16x16 Booth-Wallace).
func BenchmarkSimulateCycle(b *testing.B) {
	nl, err := Build("booth-wallace-multiplier", 16)
	if err != nil {
		b.Fatal(err)
	}
	meter, err := NewMeter(nl)
	if err != nil {
		b.Fatal(err)
	}
	stream := OperandStream(TypeRandom, 16, 2, 1)
	meter.Reset(stream.Next())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meter.Cycle(stream.Next())
	}
}
