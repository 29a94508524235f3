package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
)

// charSpec is the shape of one characterization: a catalog module at an
// operand width, a pattern budget and the table kind.
type charSpec struct {
	Module   string
	Width    int
	Patterns int
	Enhanced bool
}

func (s charSpec) name() string { return fmt.Sprintf("%s-w%d", s.Module, s.Width) }

// inputBits is the module's input vector width at s.Width.
func (s charSpec) inputBits() int {
	mod, err := dwlib.Lookup(s.Module)
	if err != nil {
		panic(err) // every spec in this file names a catalog module
	}
	return mod.TotalInputBits(s.Width)
}

// buildBody renders the POST /v1/models/build request for s at seed.
func (s charSpec) buildBody(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"module":%q,"width":%d,"seed":%d,"patterns":%d,"enhanced":%t,"wait":true}`,
		s.Module, s.Width, seed, s.Patterns, s.Enhanced))
}

// Workload sizes. They were chosen on a 2-CPU host so that every timed
// window holds at least minSamples(0.9) ops; see README.md.
var (
	// charEventSpec is the paper's Fig. 1 multiplier size (16 input bits).
	charEventSpec = charSpec{Module: "csa-multiplier", Width: 8, Patterns: 2560}
	// buildSpec is what build-local and build-fleet POST, one fresh seed
	// per build so every build misses the model cache.
	buildSpec = charSpec{Module: "csa-multiplier", Width: 16, Patterns: 2048, Enhanced: true}
	// estimateModels are built during the estimate workloads' set-up.
	estimateModels = []charSpec{
		{Module: "csa-multiplier", Width: 8, Patterns: 5000, Enhanced: true},
		{Module: "ripple-adder", Width: 16, Patterns: 5000},
		{Module: "booth-wallace-multiplier", Width: 8, Patterns: 5000},
	}
)

const (
	// maxOps bounds the pre-generated per-op seeds; a run that needs more
	// fails instead of reusing a seed (which would hit the model cache).
	maxOps = 1 << 14
	// estimateCycles is the series length of one estimate request.
	estimateCycles = 16
	// streamLines is the number of requests in one stream batch.
	streamLines = 64
	// poolSize is the number of distinct estimate requests; stream
	// batches are consecutive runs of streamLines of them.
	poolSize = 1024
)

// estReq is one pre-generated estimate request.
type estReq struct {
	Model int // index into estimateModels
	Hd    []int
	SZ    []int
	Words []uint64
	Body  []byte
}

// inputs is everything a workload sends, generated from its seed before
// any set-up: the same seed gives byte-identical inputs.
type inputs struct {
	seed       int64
	opSeeds    []int64 // timed ops, in order
	warmSeeds  []int64 // set-up warm-up ops, one per set-up
	modelSeeds []int64 // estimate models, parallel to estimateModels
	pool       []estReq
}

func genInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	in.opSeeds = make([]int64, maxOps)
	for i := range in.opSeeds {
		in.opSeeds[i] = rng.Int63()
	}
	in.warmSeeds = make([]int64, setupRepeats)
	for i := range in.warmSeeds {
		in.warmSeeds[i] = rng.Int63()
	}
	in.modelSeeds = make([]int64, len(estimateModels))
	for i := range in.modelSeeds {
		in.modelSeeds[i] = rng.Int63n(1 << 31)
	}
	shapes := []string{"hd", "words", "enhanced"}
	in.pool = make([]estReq, poolSize)
	for i := range in.pool {
		mi := i % len(estimateModels)
		in.pool[i] = genRequest(rng, mi, estimateModels[mi], in.modelSeeds[mi], shapes[(i/len(estimateModels))%len(shapes)])
	}
	return in
}

func genRequest(rng *rand.Rand, mi int, spec charSpec, seed int64, shape string) estReq {
	m := spec.inputBits()
	r := estReq{Model: mi}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"model":{"module":%q,"width":%d,"seed":%d}`, spec.Module, spec.Width, seed)
	switch shape {
	case "words":
		mask := ^uint64(0)
		if m < 64 {
			mask = 1<<uint(m) - 1
		}
		r.Words = make([]uint64, estimateCycles+1)
		for i := range r.Words {
			r.Words[i] = rng.Uint64() & mask
		}
		b.WriteString(`,"words":[`)
		for i, w := range r.Words {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(w, 10))
		}
		b.WriteByte(']')
	default: // hd, enhanced
		r.Hd = make([]int, estimateCycles)
		for i := range r.Hd {
			r.Hd[i] = rng.Intn(m + 1)
		}
		writeInts(&b, "hd", r.Hd)
		if shape == "enhanced" {
			r.SZ = make([]int, estimateCycles)
			for i := range r.SZ {
				r.SZ[i] = rng.Intn(m - r.Hd[i] + 1)
			}
			writeInts(&b, "stable_zeros", r.SZ)
		}
	}
	b.WriteByte('}')
	r.Body = b.Bytes()
	return r
}

func writeInts(b *bytes.Buffer, field string, vals []int) {
	fmt.Fprintf(b, `,%q:[`, field)
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte(']')
}

// total is the answer the reference model gives for r, summed in series
// order as the server does.
func (r *estReq) total(m *core.Model) float64 {
	var t float64
	switch {
	case r.Words != nil:
		words := make([]logic.Word, len(r.Words))
		for i, v := range r.Words {
			words[i] = logic.FromUint(v, m.InputBits)
		}
		for i := 1; i < len(words); i++ {
			hd := logic.Hd(words[i-1], words[i])
			if m.HasEnhanced() {
				t += m.PEnhanced(hd, logic.StableZeros(words[i-1], words[i]))
			} else {
				t += m.P(hd)
			}
		}
	case r.SZ != nil:
		for i := range r.Hd {
			t += m.PEnhanced(r.Hd[i], r.SZ[i])
		}
	default:
		for _, hd := range r.Hd {
			t += m.P(hd)
		}
	}
	return t
}

// streamBody joins batch b's requests into one NDJSON body.
func (in *inputs) streamBody(b int) []byte {
	var out bytes.Buffer
	for j := 0; j < streamLines; j++ {
		out.Write(in.pool[(b*streamLines+j)%len(in.pool)].Body)
		out.WriteByte('\n')
	}
	return out.Bytes()
}
