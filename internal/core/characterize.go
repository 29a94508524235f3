package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"hdpower/internal/faultpoint"
	"hdpower/internal/logic"
	"hdpower/internal/power"
)

// CharacterizeOptions configures a characterization run.
type CharacterizeOptions struct {
	// Patterns is the number of transition pairs to simulate.
	// Defaults to 5000 (the lower end of the paper's 5000–10000 range).
	Patterns int
	// Enhanced additionally characterizes the stable-zero refined classes
	// of the enhanced model.
	Enhanced bool
	// ZClusters clusters the stable-zero axis of the enhanced model into
	// this many buckets per Hd class; 0 keeps full resolution.
	ZClusters int
	// Seed makes the characterization stream deterministic.
	Seed int64
	// ConvergeTol, if positive, ends the run early once the largest
	// relative change of any populated basic coefficient between
	// consecutive check intervals drops below this tolerance — the
	// paper's "characterization can be finished after the coefficient
	// values have converged".
	ConvergeTol float64
	// CheckEvery is the convergence check interval in patterns
	// (default 500). Checks run on merged shard boundaries, at the first
	// boundary at or past each multiple of CheckEvery.
	CheckEvery int
	// Workers is the number of concurrent characterization workers
	// sharing the pattern budget; 0 defaults to runtime.NumCPU(), 1
	// forces the fully sequential path. The pattern stream is sharded
	// deterministically by (Seed, shard index) and per-shard partial
	// accumulators are merged in shard order, so the fitted model is
	// bit-identical for every worker count.
	Workers int
	// Backend selects the simulation engine that prices the pattern
	// pairs. The zero value (BackendAuto) and BackendEvent use the
	// caller's meter — the scalar event-driven reference, bit-identical
	// to prior releases; BackendBitParallel builds a 64-lane bit-parallel
	// engine over the same netlist (see internal/bitsim), about 7x faster
	// on one core with unit-delay glitch approximation.
	// The backend changes the reference charges (and so the fitted
	// coefficients), never the determinism or resume guarantees; a
	// checkpoint records its backend and refuses to resume under another.
	Backend BackendKind
	// Hooks receives progress callbacks during the run; nil disables
	// them. Callbacks never affect the fitted model.
	Hooks *Hooks
	// Interrupt, if non-nil, is polled at every merged shard boundary;
	// the first non-nil error aborts the run and Characterize returns it.
	// Serving layers use this to cancel an in-flight characterization
	// when its request context expires or the process drains. When
	// checkpointing is configured, the merged state is snapshotted before
	// the abort, so a later Resume continues where the interrupt landed.
	Interrupt func() error
	// Checkpoint configures crash-safe snapshots of the merged state and
	// resuming from them; the zero value disables both.
	Checkpoint CheckpointOptions
}

// Hooks observes characterization progress. All fields are optional.
// Callbacks run on the merging goroutine in deterministic shard order, so
// implementations need no internal ordering, only thread-safety against
// other runs.
type Hooks struct {
	// PatternsSimulated fires after each shard is merged with the
	// shard's pattern count.
	PatternsSimulated func(n int)
	// ShardMerged fires once per merged shard.
	ShardMerged func()
	// EarlyStop fires when the convergence check ends the run before the
	// full pattern budget, with the patterns actually consumed.
	EarlyStop func(patternsUsed int)
	// PhaseStart fires when a characterization phase begins, with the
	// phase name ("basic" or "biased"), the number of shards the phase
	// will merge at most, and its pattern budget. Serving layers use it to
	// size progress bars and open trace spans.
	PhaseStart func(phase string, shards, patterns int)
	// PhaseEnd fires exactly once per started phase, even when the phase
	// is cut short by convergence or an Interrupt, so span-style observers
	// can rely on balanced start/end pairs.
	PhaseEnd func(phase string)
	// Convergence fires at every convergence checkpoint with the merged
	// pattern count and the worst relative coefficient change since the
	// previous checkpoint (math.Inf(1) when a class first turned nonzero).
	// With ConvergeTol <= 0 checkpoints are still evaluated for this hook
	// — observability only, never an early stop.
	Convergence func(patterns int, worstChange float64)
	// Resumed fires once, before any phase starts, when the run restores
	// state from a checkpoint: the phase being resumed, plus the shard and
	// per-phase pattern totals already merged by earlier processes (which
	// the run's own Patterns/ShardMerged hooks will not replay).
	Resumed func(phase string, shardsMerged, patternsBasic, patternsBiased int)
	// CheckpointSaved fires after every checkpoint snapshot attempt with
	// its write error (nil on success). Snapshot failures never fail the
	// run — this hook is where they become observable.
	CheckpointSaved func(err error)
}

func (h *Hooks) patterns(n int) {
	if h != nil && h.PatternsSimulated != nil {
		h.PatternsSimulated(n)
	}
}

func (h *Hooks) shardMerged() {
	if h != nil && h.ShardMerged != nil {
		h.ShardMerged()
	}
}

func (h *Hooks) earlyStop(patternsUsed int) {
	if h != nil && h.EarlyStop != nil {
		h.EarlyStop(patternsUsed)
	}
}

func (h *Hooks) phaseStart(phase string, shards, patterns int) {
	if h != nil && h.PhaseStart != nil {
		h.PhaseStart(phase, shards, patterns)
	}
}

func (h *Hooks) phaseEnd(phase string) {
	if h != nil && h.PhaseEnd != nil {
		h.PhaseEnd(phase)
	}
}

func (h *Hooks) convergence(patterns int, worst float64) {
	if h != nil && h.Convergence != nil {
		h.Convergence(patterns, worst)
	}
}

func (h *Hooks) resumed(phase string, shards, patternsBasic, patternsBiased int) {
	if h != nil && h.Resumed != nil {
		h.Resumed(phase, shards, patternsBasic, patternsBiased)
	}
}

func (h *Hooks) checkpointSaved(err error) {
	if h != nil && h.CheckpointSaved != nil {
		h.CheckpointSaved(err)
	}
}

// wantsConvergence reports whether convergence checkpoints must run even
// without an early-stop tolerance.
func (h *Hooks) wantsConvergence() bool {
	return h != nil && h.Convergence != nil
}

// JoinHooks fans every callback out to all non-nil hook sets in order, so
// independent observers (metrics, tracing, a flight recorder, progress
// tracking) compose without knowing about each other.
func JoinHooks(hs ...*Hooks) *Hooks {
	var live []*Hooks
	for _, h := range hs {
		if h != nil {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	j := &Hooks{}
	j.PatternsSimulated = func(n int) {
		for _, h := range live {
			h.patterns(n)
		}
	}
	j.ShardMerged = func() {
		for _, h := range live {
			h.shardMerged()
		}
	}
	j.EarlyStop = func(used int) {
		for _, h := range live {
			h.earlyStop(used)
		}
	}
	j.PhaseStart = func(phase string, shards, patterns int) {
		for _, h := range live {
			h.phaseStart(phase, shards, patterns)
		}
	}
	j.PhaseEnd = func(phase string) {
		for _, h := range live {
			h.phaseEnd(phase)
		}
	}
	j.Resumed = func(phase string, shards, patternsBasic, patternsBiased int) {
		for _, h := range live {
			h.resumed(phase, shards, patternsBasic, patternsBiased)
		}
	}
	j.CheckpointSaved = func(err error) {
		for _, h := range live {
			h.checkpointSaved(err)
		}
	}
	// Only forward Convergence when someone listens: its presence alone
	// makes Characterize evaluate checkpoints (see wantsConvergence).
	for _, h := range live {
		if h.Convergence != nil {
			j.Convergence = func(patterns int, worst float64) {
				for _, h := range live {
					h.convergence(patterns, worst)
				}
			}
			break
		}
	}
	return j
}

func (o *CharacterizeOptions) setDefaults() {
	if o.Patterns <= 0 {
		o.Patterns = 5000
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 500
	}
}

// workerCount resolves the Workers option against the host.
func (o *CharacterizeOptions) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// PairSource generates characterization vector pairs (u, v) stratified
// over the Hamming-distance axis: the flip count i is drawn uniformly from
// [1, m], so every class E_i receives samples even for wide inputs, where
// a plain uniform stream essentially never produces Hd 1 or Hd m.
//
// In the default (unbiased) mode the base vector is uniform random, which
// makes the per-class conditional distribution identical to that of a
// uniform pattern pair conditioned on its Hamming-distance — so the
// resulting p_i are unbiased for random evaluation streams. The biased
// mode additionally stratifies the ones-density of the base vector to
// populate the extreme stable-zero classes of the enhanced model; it is
// only used for the enhanced coefficient table.
type PairSource struct {
	m       int
	rng     *rand.Rand
	idx     []int // scratch permutation
	density bool  // stratify base-vector ones-density
}

// NewPairSource returns an unbiased stratified characterization pair
// source for m-bit input vectors.
func NewPairSource(m int, seed int64) *PairSource {
	return newPairSource(m, seed, false)
}

// NewBiasedPairSource returns a pair source that additionally stratifies
// the base vector's ones-density over [0.05, 0.95], covering the
// stable-zero axis of the enhanced model.
func NewBiasedPairSource(m int, seed int64) *PairSource {
	return newPairSource(m, seed, true)
}

func newPairSource(m int, seed int64, density bool) *PairSource {
	if m <= 0 {
		panic(fmt.Sprintf("core: non-positive input width %d", m))
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	return &PairSource{m: m, rng: rand.New(rand.NewSource(seed)), idx: idx, density: density}
}

// Next returns the next characterization pair as two fresh words.
func (ps *PairSource) Next() (u, v logic.Word) {
	u, v = logic.NewWord(ps.m), logic.NewWord(ps.m)
	ps.fill(&u, &v)
	return u, v
}

// fill overwrites the m-bit words u and v with the next characterization
// pair, so a shard can generate into one preallocated batch.
func (ps *PairSource) fill(u, v *logic.Word) {
	density := 0.5
	if ps.density {
		density = 0.05 + 0.9*ps.rng.Float64()
	}
	for b := 0; b < ps.m; b++ {
		u.Set(b, ps.rng.Float64() < density)
	}
	i := 1 + ps.rng.Intn(ps.m)
	// Partial Fisher-Yates for i distinct flip positions.
	for k := 0; k < i; k++ {
		j := k + ps.rng.Intn(ps.m-k)
		ps.idx[k], ps.idx[j] = ps.idx[j], ps.idx[k]
	}
	v.CopyFrom(*u)
	for k := 0; k < i; k++ {
		v.Set(ps.idx[k], !v.Bit(ps.idx[k]))
	}
}

// epsilonReservoir bounds the per-class deviation sample kept by classAcc.
// Classes keep their first epsilonReservoir charge samples in merged
// stream order: within a class the stream is i.i.d., so the prefix is an
// unbiased deviation sample, and — unlike a randomized reservoir — it
// stays byte-identical under ordered shard merging for any worker count.
const epsilonReservoir = 512

// classAcc accumulates the charge samples of one switching-event class as
// a streaming (count, sum) pair plus the bounded deviation reservoir, so
// memory per class is O(1) no matter how long the run is.
type classAcc struct {
	count int64
	sum   float64
	dev   []float64 // first epsilonReservoir samples, for ε_i
}

func (a *classAcc) add(q float64) {
	a.count++
	a.sum += q
	if len(a.dev) < epsilonReservoir {
		a.dev = append(a.dev, q)
	}
}

// merge folds a later shard's partial accumulator into a. Partials must be
// merged in shard-index order to keep sums and reservoirs deterministic.
func (a *classAcc) merge(b *classAcc) {
	a.count += b.count
	a.sum += b.sum
	if room := epsilonReservoir - len(a.dev); room > 0 {
		if room > len(b.dev) {
			room = len(b.dev)
		}
		a.dev = append(a.dev, b.dev[:room]...)
	}
}

func (a *classAcc) coef() Coef {
	if a.count == 0 {
		return Coef{}
	}
	p := a.sum / float64(a.count)
	var dev float64
	if p > 0 {
		for _, q := range a.dev {
			dev += math.Abs((q - p) / p)
		}
		dev /= float64(len(a.dev))
	}
	return Coef{P: p, Epsilon: dev, Count: int(a.count)}
}

// convTracker runs the convergence check of Section 4.1 on merged shard
// checkpoints: the first merged shard boundary at or past each multiple of
// CheckEvery patterns.
type convTracker struct {
	tol        float64
	checkEvery int
	nextCheck  int
	prev       []float64 // per-class mean at the previous checkpoint
	prevCount  []int64   // per-class sample count at the previous checkpoint
}

func newConvTracker(m int, tol float64, checkEvery int) *convTracker {
	return &convTracker{
		tol:        tol,
		checkEvery: checkEvery,
		nextCheck:  checkEvery,
		prev:       make([]float64, m),
		prevCount:  make([]int64, m),
	}
}

// check evaluates a convergence checkpoint at the current merged state of
// `patterns` characterization pairs. checked reports whether a checkpoint
// was due (and worst is meaningful); stop reports whether the run has
// converged under the tracker's tolerance.
func (c *convTracker) check(basic []classAcc, patterns int) (worst float64, checked, stop bool) {
	if patterns < c.nextCheck {
		return 0, false, false
	}
	c.nextCheck = patterns - patterns%c.checkEvery + c.checkEvery
	worst = convergenceWorst(basic, c.prev, c.prevCount)
	return worst, true, c.tol > 0 && worst < c.tol && patterns >= 2*c.checkEvery
}

// convergenceWorst returns the largest relative change of any populated
// basic coefficient against the previous checkpoint, updating prev and
// prevCount in place. A class whose running mean is zero contributes
// nothing as long as no samples contradict it: a legitimately zero-mean
// class (or one with zero samples-delta since the last checkpoint) counts
// as converged instead of pinning the worst change at +Inf forever. Only
// a class that first turns nonzero — new samples with no usable baseline —
// reports +Inf, deferring convergence to the next checkpoint.
func convergenceWorst(basic []classAcc, prev []float64, prevCount []int64) float64 {
	worst := 0.0
	for k := range basic {
		n := basic[k].count
		if n == 0 {
			continue
		}
		cur := basic[k].sum / float64(n)
		switch {
		case prev[k] > 0:
			if change := math.Abs(cur-prev[k]) / prev[k]; change > worst {
				worst = change
			}
		case cur > 0 && n > prevCount[k]:
			worst = math.Inf(1)
		}
		prev[k] = cur
		prevCount[k] = n
	}
	return worst
}

// charPartial holds one shard's partial accumulators.
type charPartial struct {
	patterns int
	basic    []classAcc   // nil for biased-phase shards
	enhanced [][]classAcc // nil unless the enhanced table is being fitted
}

// Phase names reported through Hooks.PhaseStart/PhaseEnd.
const (
	// PhaseBasic is the unbiased stratified phase that fills the basic
	// Hd classes.
	PhaseBasic = "basic"
	// PhaseBiased is the density-stratified phase that populates the
	// extreme stable-zero classes of the enhanced table.
	PhaseBiased = "biased"
)

// Stream discriminators for shardSeed.
const (
	streamBasic  = 0 // phase 1: unbiased stratified pairs
	streamBiased = 1 // phase 2: density-stratified pairs (enhanced table)
	streamPortA  = 2 // CharacterizePorts, port A
	streamPortB  = 3 // CharacterizePorts, port B
)

// newCharPartial allocates empty accumulators in the model's class
// geometry: the basic classes and, when enhanced, the stable-zero refined
// classes of the enhanced table.
func newCharPartial(model *Model, patterns int, basic, enhanced bool) *charPartial {
	m := model.InputBits
	part := &charPartial{patterns: patterns}
	if basic {
		part.basic = make([]classAcc, m)
	}
	if enhanced {
		part.enhanced = make([][]classAcc, m)
		for i := 1; i <= m; i++ {
			part.enhanced[i-1] = make([]classAcc, model.NumZBuckets(i))
		}
	}
	return part
}

// runCharShard simulates one shard of the characterization stream on the
// worker's own backend and returns its partial accumulators. The shard's
// pairs are generated up front and priced as one batch — the event
// backend walks them in the same order the pre-Backend code did (so its
// models stay bit-identical), while the bit-parallel backend prices 64 at
// a time. The model is only read (immutable bucket geometry), so shards
// may run concurrently.
func runCharShard(b Backend, model *Model, sh shard, seed int64, biased, enhanced bool) *charPartial {
	faultpoint.Delay("core.shard") // chaos: stragglers must not change the model
	m := model.InputBits
	part := newCharPartial(model, sh.patterns, !biased, enhanced)
	stream := streamBasic
	if biased {
		stream = streamBiased
	}
	ps := newPairSource(m, shardSeed(seed, stream, sh.index), biased)
	words := logic.NewWords(2*sh.patterns, m)
	us, vs := words[:sh.patterns:sh.patterns], words[sh.patterns:]
	q := make([]float64, sh.patterns)
	for j := range us {
		ps.fill(&us[j], &vs[j])
	}
	b.Charges(us, vs, q)
	for j := range us {
		i := logic.Hd(us[j], vs[j])
		if part.basic != nil {
			part.basic[i-1].add(q[j])
		}
		if part.enhanced != nil {
			z := logic.StableZeros(us[j], vs[j])
			part.enhanced[i-1][model.ZBucket(i, z)].add(q[j])
		}
	}
	return part
}

// verifyNetlist statically lints the meter's netlist before any pattern
// is simulated. Meter construction finalizes the netlist, but surgery
// (netlist.RewireGateInput/RedriveGateOutput) and corruption can happen
// after that, and Finalize trusts caches Verify recomputes — so every
// characterization re-checks from first principles and fails with the
// typed, net-naming *netlist.VerifyError instead of wedging an engine.
func verifyNetlist(meter *power.Meter, moduleName string) error {
	nl := meter.Simulator().Netlist()
	if nl == nil {
		return nil
	}
	if err := nl.VerifyErr(); err != nil {
		return fmt.Errorf("core: refusing to characterize %s: %w", moduleName, err)
	}
	return nil
}

// inputBits verifies the meter's netlist and returns its input width,
// which every characterization needs to be positive.
func inputBits(meter *power.Meter, moduleName string) (int, error) {
	if err := verifyNetlist(meter, moduleName); err != nil {
		return 0, err
	}
	m := meter.NumInputBits()
	if m <= 0 {
		return 0, fmt.Errorf("core: module %s has no inputs", moduleName)
	}
	return m, nil
}

// Characterize runs the characterization process of Section 4.1 against
// the reference charge meter and returns the fitted model. The meter's
// module must have at least one input bit. With Workers > 1 (or the
// runtime.NumCPU default on multi-core hosts) the pattern stream is
// characterized by a worker pool over clones of the meter; see
// CharacterizeOptions.Workers for the determinism contract.
//
// Characterize drives a MergeSession in process: each phase's remaining
// shards run through runShardsOrdered and are folded into the session in
// shard order, which owns the merge, the convergence check, the early
// stop and the phase hooks. Between shards it polls Interrupt and takes
// the periodic checkpoint. Because the session at a merged-shard boundary
// is a pure function of the shard prefix, a resumed run that replays the
// remaining shards lands on exactly the model of an uninterrupted run.
func Characterize(meter *power.Meter, moduleName string, opt CharacterizeOptions) (*Model, error) {
	opt.setDefaults()
	m, err := inputBits(meter, moduleName)
	if err != nil {
		return nil, err
	}
	sess, err := newSession(moduleName, m, opt)
	if err != nil {
		return nil, err
	}
	model, plan := sess.model, sess.plan
	backends, err := opt.workerBackends(meter, len(plan))
	if err != nil {
		return nil, err
	}
	var ck *checkpointer
	if opt.Checkpoint.Path != "" {
		ck = &checkpointer{path: opt.Checkpoint.Path, every: opt.Checkpoint.every(), sess: sess}
	}
	resumed, err := ck.resume(opt.Checkpoint.Resume)
	if err != nil {
		return nil, err
	}
	if !resumed {
		sess.openPhase(len(plan), opt.Patterns)
	}

	// Phase 1 (basic) fills the basic classes from unbiased stratified
	// pairs; the convergence check runs on the merged prefix only, so the
	// early-stop point is worker-count-independent. Phase 2 (biased, for
	// the enhanced table) replays the shards phase 1 consumed with
	// density-stratified pairs that populate the extreme stable-zero
	// classes uniform vectors almost never produce (paper Fig. 2).
	for !sess.Done() {
		start, biased := sess.merged, sess.phase == PhaseBiased
		var interrupted error
		runShardsOrdered(sess.PhaseShards()-start, len(backends),
			func(w, idx int) *charPartial {
				return runCharShard(backends[w], model, plan[start+idx], opt.Seed, biased, opt.Enhanced)
			},
			func(_ int, part *charPartial) bool {
				if sess.fold(part) && !biased && sess.stopped {
					// The early-stop shard: the phase-boundary snapshot
					// persists the decision, so a crash in the biased
					// phase never replays the check.
					return false
				}
				if interrupted = interruption(opt.Interrupt); interrupted != nil {
					ck.save()
					return false
				}
				ck.tick()
				return true
			})
		if interrupted != nil {
			sess.Close()
			return nil, fmt.Errorf("core: characterization of %s interrupted: %w", moduleName, interrupted)
		}
		// Phase-boundary snapshot: a crash during the biased phase must
		// not replay the basic phase.
		sess.advance(ck.save)
	}
	// The run is complete; a leftover checkpoint would make the next run
	// of this spec resume into an already-finished state.
	ck.remove()
	return sess.Finish()
}

// interruption polls the caller's Interrupt and the core.merge fault
// point after a merged shard; a non-nil result aborts the run.
func interruption(poll func() error) error {
	if poll != nil {
		if err := poll(); err != nil {
			return err
		}
	}
	return faultpoint.Hit("core.merge")
}
