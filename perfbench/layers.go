package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/logic"
	"hdpower/internal/lut"
	"hdpower/internal/telemetry"
)

// Layer probe sizes: enough calls that each per-call figure averages
// over milliseconds of work.
const (
	probeBatch     = 128 // pairs per shard, the engine's shard size
	probePairgen   = 64  // batches of pair generation and classification
	probeEvent     = 8   // event-backend batches of probeBatch pairs
	probeBitsim    = 64  // bit-parallel batches of 64 lanes
	probeShards    = 4   // single-shard CharacterizeShardRange calls
	probeSaveEvery = 8   // merged shards between checkpoint saves
	probeRequests  = 4096
	probeSpanEvery = 256 // requests per LUT/telemetry span
	bitsimLanes    = 64
	probeOp        = -1 // op id of probe spans
)

// probeLayers times the core, sim, bitsim, lut and telemetry layers by
// calling their public functions on the workload's own netlist, each
// call (or short loop of calls) under a span. It returns the per-layer
// metrics those spans give.
func probeLayers(w workload, e *env, tr *tracer) (map[string]float64, error) {
	spec := w.layer
	meter, err := newMeter(spec)
	if err != nil {
		return nil, err
	}
	m := meter.NumInputBits()
	rng := rand.New(rand.NewSource(e.in.seed))
	out := make(map[string]float64)

	// Pair generation, both streams when the spec fits the enhanced
	// table, and classification of the generated pairs.
	n := probePairgen * probeBatch
	us := make([]logic.Word, n)
	vs := make([]logic.Word, n)
	for b := 0; b < probePairgen; b++ {
		var ps *core.PairSource
		if spec.Enhanced && b%2 == 1 {
			ps = core.NewBiasedPairSource(m, rng.Int63())
		} else {
			ps = core.NewPairSource(m, rng.Int63())
		}
		tm := tr.begin("core.PairSource.Next", 0, probeOp)
		for j := b * probeBatch; j < (b+1)*probeBatch; j++ {
			us[j], vs[j] = ps.Next()
		}
		tm.end()
	}
	sink := 0
	for b := 0; b < probePairgen; b++ {
		tm := tr.begin("logic.Hd+StableZeros", 0, probeOp)
		for j := b * probeBatch; j < (b+1)*probeBatch; j++ {
			sink += logic.Hd(us[j], vs[j]) + logic.StableZeros(us[j], vs[j])
		}
		tm.end()
	}
	if sink < 0 {
		return nil, fmt.Errorf("impossible classification sum %d", sink)
	}

	// Backends: the event reference per pair, bit-parallel per 64 lanes.
	q := make([]float64, n)
	ev := core.NewMeterBackend(meter.Clone())
	evAllocs := allocsDuring(func() {
		for b := 0; b < probeEvent; b++ {
			lo, hi := b*probeBatch, (b+1)*probeBatch
			tm := tr.begin("sim.Charges", 0, probeOp)
			ev.Charges(us[lo:hi], vs[lo:hi], q[lo:hi])
			tm.end()
		}
	})
	bp, err := core.NewBitParallelBackend(meter.Simulator().Netlist())
	if err != nil {
		return nil, err
	}
	bpAllocs := allocsDuring(func() {
		for b := 0; b < probeBitsim; b++ {
			lo := (b * bitsimLanes) % (n - bitsimLanes)
			tm := tr.begin("bitsim.Charges", 0, probeOp)
			bp.Charges(us[lo:lo+bitsimLanes], vs[lo:lo+bitsimLanes], q[lo:lo+bitsimLanes])
			tm.end()
		}
	})

	// Shards, merge and checkpoint saves on the workload's backend.
	opt := core.CharacterizeOptions{Patterns: spec.Patterns, Seed: e.in.seed, Enhanced: spec.Enhanced,
		Backend: w.backend, Workers: 1}
	for i := 0; i < probeShards; i++ {
		tm := tr.begin("core.CharacterizeShardRange", 0, probeOp)
		_, err := core.CharacterizeShardRange(meter, spec.name(), opt, core.PhaseBasic, i, i+1)
		tm.end()
		if err != nil {
			return nil, err
		}
	}
	opt.Workers = e.nproc
	shards := core.NumShards(spec.Patterns)
	results, err := core.CharacterizeShardRange(meter, spec.name(), opt, core.PhaseBasic, 0, shards)
	if err != nil {
		return nil, err
	}
	if spec.Enhanced {
		biased, err := core.CharacterizeShardRange(meter, spec.name(), opt, core.PhaseBiased, 0, shards)
		if err != nil {
			return nil, err
		}
		results = append(results, biased...)
	}
	sess, err := core.NewMergeSession(spec.name(), m, opt)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.dir, "probe.ckpt.json")
	var saveBytes int64
	saves := 0
	for k, r := range results {
		tm := tr.begin("core.MergeSession.Merge", 0, probeOp)
		err := sess.Merge(r)
		tm.end()
		if err != nil {
			return nil, err
		}
		if (k+1)%probeSaveEvery == 0 {
			tm := tr.begin("core.MergeSession.Snapshot+atomicio.WriteJSON", 0, probeOp)
			err := atomicio.WriteJSON(ckpt, sess.Snapshot())
			tm.end()
			if err != nil {
				return nil, err
			}
			fi, err := os.Stat(ckpt)
			if err != nil {
				return nil, err
			}
			saveBytes += fi.Size()
			saves++
		}
	}
	model, err := sess.Finish()
	if err != nil {
		return nil, err
	}
	_ = os.Remove(ckpt) // scratch file; the directory is removed at exit anyway

	// LUT lookups and profiler records on the estimate pool's series
	// for this model's input width.
	table, err := lut.New(model)
	if err != nil {
		return nil, err
	}
	hds := make([][]int, 64)
	szs := make([][]int, len(hds))
	for i := range hds {
		hds[i] = make([]int, estimateCycles)
		szs[i] = make([]int, estimateCycles)
		for j := range hds[i] {
			hds[i][j] = rng.Intn(m + 1)
			szs[i][j] = rng.Intn(m - hds[i][j] + 1)
		}
	}
	dst := make([]float64, estimateCycles)
	var total float64
	for b := 0; b < probeRequests/probeSpanEvery; b++ {
		tm := tr.begin("lut.Table.Estimate", 0, probeOp)
		for k := 0; k < probeSpanEvery; k++ {
			i := (b*probeSpanEvery + k) % len(hds)
			if k%2 == 0 && table.HasEnhanced() {
				total += table.EstimateEnhancedInto(dst, hds[i], szs[i])
			} else {
				total += table.EstimateBasicInto(dst, hds[i])
			}
		}
		tm.end()
	}
	if total <= 0 {
		return nil, fmt.Errorf("LUT estimates sum to %v", total)
	}
	tel, err := telemetry.New(telemetry.Config{Now: time.Now})
	if err != nil {
		return nil, err
	}
	prof := tel.Profiler().Model(telemetry.Key{Module: spec.Module, Width: spec.Width, Seed: e.in.seed}, m+1)
	for b := 0; b < probeRequests/probeSpanEvery; b++ {
		tm := tr.begin("telemetry.ModelProf.Record", 0, probeOp)
		for k := 0; k < probeSpanEvery; k++ {
			i := (b*probeSpanEvery + k) % len(hds)
			for _, hd := range hds[i] {
				prof.RecordClass(uint32(k), hd)
			}
			prof.RecordRequest(uint32(k), estimateCycles, 1e-6)
		}
		tm.end()
	}

	lt := selfTimes(tr.snapshot())
	perCall := func(name string, calls int) float64 { return float64(lt[name].Total) / float64(calls) }
	out["core.pairgen.ns_per_pair"] = perCall("core.PairSource.Next", n)
	out["core.classify.ns_per_pair"] = perCall("logic.Hd+StableZeros", n)
	out["sim.charges.us_per_pair"] = perCall("sim.Charges", probeEvent*probeBatch) / 1e3
	out["sim.charges.allocs_per_pair"] = float64(evAllocs) / float64(probeEvent*probeBatch)
	out["bitsim.charges.us_per_batch"] = perCall("bitsim.Charges", probeBitsim) / 1e3
	out["bitsim.charges.allocs_per_batch"] = float64(bpAllocs) / probeBitsim
	out["core.shard.ms"] = perCall("core.CharacterizeShardRange", probeShards) / 1e6
	out["core.merge.us_per_shard"] = perCall("core.MergeSession.Merge", len(results)) / 1e3
	out["core.checkpoint.ms_per_save"] = perCall("core.MergeSession.Snapshot+atomicio.WriteJSON", saves) / 1e6
	out["core.checkpoint.kb_per_save"] = float64(saveBytes) / 1024 / float64(saves)
	out["lut.estimate.ns_per_cycle"] = perCall("lut.Table.Estimate", probeRequests*estimateCycles)
	out["telemetry.record.ns"] = perCall("telemetry.ModelProf.Record", probeRequests*(estimateCycles+1))
	return out, nil
}

// allocsDuring counts the heap allocations the process makes while f
// runs.
func allocsDuring(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
