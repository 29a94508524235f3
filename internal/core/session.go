package core

// session.go holds the characterization merge state machine. A
// characterization does three jobs: it simulates shards, merges their
// partial accumulators in shard order, and decides convergence. The last
// two live in MergeSession and nowhere else. Characterize drives a session
// in process, folding each shard its worker pool computes; a fleet
// coordinator (internal/fleet) drives one with the ShardResults its
// workers compute through CharacterizeShardRange. Both callers therefore
// share the accumulator arithmetic, the per-shard convergence-check
// cadence, the early-stop boundary and the hook order, which is what makes
// a fleet build bit-identical to a single-node run of the same options
// (pinned by TestFleetBitIdentical in internal/fleet).
//
// A session snapshots to and resumes from one Checkpoint encoding,
// whether the snapshot lands in a checkpoint file (Characterize) or in a
// coordinator's lease ledger, so both inherit the checkpoint's bit-exact
// float64 round trip.

import (
	"fmt"

	"hdpower/internal/power"
)

// ShardResult is the wire form of one shard's partial accumulators: what
// runCharShard computes, serialized with the checkpoint's AccState
// encoding. Index is phase-relative (the shard's position in the phase's
// plan, which for both phases equals its shard-plan index), so a
// MergeSession can check arrival order without knowing which worker
// computed it.
type ShardResult struct {
	Index    int `json:"index"`
	Patterns int `json:"patterns"`
	// Basic holds the basic-class partials; present only for basic-phase
	// shards.
	Basic []AccState `json:"basic,omitempty"`
	// Enhanced holds the stable-zero-refined partials; present only when
	// the run fits the enhanced table.
	Enhanced [][]AccState `json:"enhanced,omitempty"`
}

// result converts a computed shard partial to its wire form.
func (p *charPartial) result(index int) ShardResult {
	r := ShardResult{Index: index, Patterns: p.patterns}
	r.Basic, r.Enhanced = p.states()
	return r
}

// Fingerprint pins the full identity of a characterization stream —
// module, geometry, every option that shapes the pattern stream, the
// backend, and the package's structural constants — as a short hex
// string. A fleet worker recomputes it from the job spec it was handed
// and refuses work whose fingerprint differs from the coordinator's, so
// two builds of this package with different internals (or two mismatched
// specs) can never mix shards.
func Fingerprint(module string, inputBits int, opt CharacterizeOptions) string {
	opt.setDefaults()
	return charTopoHash(module, inputBits, &opt)
}

// NumShards returns the number of shards a pattern budget decomposes
// into — the index space CharacterizeShardRange and MergeSession operate
// on. A non-positive budget means the Characterize default.
func NumShards(patterns int) int {
	opt := CharacterizeOptions{Patterns: patterns}
	opt.setDefaults()
	return len(shardPlan(opt.Patterns))
}

// CharacterizeShardRange simulates the contiguous phase-relative shard
// range [start, end) of phase on the caller's meter and returns one
// ShardResult per shard, in index order. It is the worker half of a
// distributed characterization: the shard plan, seeds and accumulator
// arithmetic are identical to the ones Characterize uses internally, so
// merging the results through a MergeSession reproduces a single-node run
// bit-exactly. opt.Interrupt is polled between shards; opt's convergence
// and checkpoint options are ignored here (both are coordinator
// concerns).
func CharacterizeShardRange(meter *power.Meter, moduleName string, opt CharacterizeOptions,
	phase string, start, end int) ([]ShardResult, error) {
	opt.setDefaults()
	m, err := inputBits(meter, moduleName)
	if err != nil {
		return nil, err
	}
	plan := shardPlan(opt.Patterns)
	if start < 0 || end > len(plan) || start >= end {
		return nil, fmt.Errorf("core: shard range [%d,%d) outside the %d-shard plan of %s",
			start, end, len(plan), moduleName)
	}
	var biased bool
	switch phase {
	case PhaseBasic:
	case PhaseBiased:
		if !opt.Enhanced {
			return nil, fmt.Errorf("core: biased-phase shards requested for the non-enhanced run of %s", moduleName)
		}
		biased = true
	default:
		return nil, fmt.Errorf("core: unknown characterization phase %q", phase)
	}
	n := end - start
	backends, err := opt.workerBackends(meter, n)
	if err != nil {
		return nil, err
	}
	// Only the bucket geometry of the model is read during simulation.
	model := newModel(moduleName, m, opt.ZClusters)

	results := make([]ShardResult, 0, n)
	var interrupted error
	runShardsOrdered(n, len(backends),
		func(w, idx int) *charPartial {
			return runCharShard(backends[w], model, plan[start+idx], opt.Seed, biased, opt.Enhanced)
		},
		func(idx int, part *charPartial) bool {
			if opt.Interrupt != nil {
				if err := opt.Interrupt(); err != nil {
					interrupted = err
					return false
				}
			}
			results = append(results, part.result(start+idx))
			return true
		})
	if interrupted != nil {
		return nil, fmt.Errorf("core: shard range [%d,%d) of %s interrupted: %w",
			start, end, moduleName, interrupted)
	}
	return results, nil
}

// MergeSession is the characterization merge state machine: it folds
// shard partials in shard order, runs the convergence check, decides the
// early stop, moves from the basic to the biased phase, and fires the
// phase and per-shard hooks. Characterize drives one in process; a
// distributed caller feeds it one ShardResult at a time through Merge.
// Feeding every shard of the plan in order yields the same model, the
// same early-stop decision and the same hook sequence either way — the
// bit-identity contract distributed builds rest on.
//
// A session is not safe for concurrent use; the fleet coordinator drives
// it under its own lock.
type MergeSession struct {
	module string
	opt    CharacterizeOptions
	model  *Model
	plan   []shard

	total   *charPartial // merged accumulators (patterns are counted per phase below)
	conv    *convTracker
	checks  bool
	scratch *charPartial // Merge's view of a ShardResult, reused across results

	phase          string
	merged         int // shards merged within the current phase
	usedShards     int // basic phase's final shard count (biased budget)
	patternsBasic  int
	patternsBiased int
	stopped        bool
	earlyStopAt    int
	phaseOpen      bool
	done           bool
}

// newModel returns an unfitted model carrying the class geometry of a run.
func newModel(module string, inputBits, zClusters int) *Model {
	return &Model{
		Module:    module,
		InputBits: inputBits,
		Basic:     make([]Coef, inputBits),
		ZClusters: zClusters,
	}
}

// newSession builds the session skeleton without opening a phase.
func newSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	opt.setDefaults()
	if inputBits <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", module)
	}
	model := newModel(module, inputBits, opt.ZClusters)
	return &MergeSession{
		module: module,
		opt:    opt,
		model:  model,
		plan:   shardPlan(opt.Patterns),
		total:  newCharPartial(model, 0, true, opt.Enhanced),
		conv:   newConvTracker(inputBits, opt.ConvergeTol, opt.CheckEvery),
		checks: opt.ConvergeTol > 0 || opt.Hooks.wantsConvergence(),
		phase:  PhaseBasic,
	}, nil
}

// NewMergeSession starts a fresh merge session for a run of the given
// module geometry and options, firing the PhaseStart hook for the basic
// phase. The caller must either drive the session to completion (Merge
// until Done, then Finish) or Close it, so phase hooks stay balanced.
func NewMergeSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	s, err := newSession(module, inputBits, opt)
	if err != nil {
		return nil, err
	}
	s.openPhase(len(s.plan), s.opt.Patterns)
	return s, nil
}

// ResumeMergeSession restores a session from a Checkpoint snapshot (its
// own Snapshot, or a file checkpoint of the same run). The checkpoint's
// identity must match the requested run — a mismatch returns a
// *CheckpointMismatchError, exactly like a single-node resume — and its
// structure is sanity-checked before anything is trusted.
func ResumeMergeSession(module string, inputBits int, opt CharacterizeOptions, cp *Checkpoint) (*MergeSession, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: resume of %s without a checkpoint snapshot", module)
	}
	s, err := newSession(module, inputBits, opt)
	if err != nil {
		return nil, err
	}
	if err := s.resume(cp, "(snapshot)", nil); err != nil {
		return nil, err
	}
	return s, nil
}

// resume checks cp against the session's run, restores its merged state
// and settles past every phase the snapshot had already completed, with
// boundary as in advance. A rejected checkpoint leaves the session
// untouched. Hooks replay as a fresh run would fire them: Resumed first,
// then the phase hooks of already-finished phases, so observers see
// balanced pairs.
func (s *MergeSession) resume(cp *Checkpoint, path string, boundary func()) error {
	if err := cp.matches(path, s.module, s.model.InputBits, &s.opt); err != nil {
		return err
	}
	if err := cp.sanity(s.model, len(s.plan)); err != nil {
		return fmt.Errorf("core: checkpoint %s of %s fails sanity: %w", path, s.module, err)
	}
	s.total.load(cp.Basic, cp.EnhancedAcc)
	s.conv.nextCheck = cp.ConvNext
	copy(s.conv.prev, cp.ConvPrev)
	copy(s.conv.prevCount, cp.ConvPrevCount)
	s.patternsBasic = cp.PatternsBasic
	s.patternsBiased = cp.PatternsBiased
	s.stopped = cp.EarlyStopped
	s.earlyStopAt = cp.EarlyStopAt
	s.opt.Hooks.resumed(cp.Phase, cp.totalShardsMerged(), cp.PatternsBasic, cp.PatternsBiased)
	s.openPhase(len(s.plan), s.opt.Patterns)
	if cp.Phase == PhaseBiased {
		// An earlier process closed the basic phase and took its boundary
		// snapshot; replay the close without repeating the boundary.
		s.merged = cp.UsedShards
		s.advance(nil)
	}
	s.merged = cp.ShardsMerged
	s.settle(boundary)
	return nil
}

// openPhase fires the PhaseStart hook for the session's current phase and
// records it as open; closePhase is its balance, reached from advance on
// phase completion or from Close on abandonment.
func (s *MergeSession) openPhase(shards, patterns int) {
	s.phaseOpen = true
	//hdlint:allow hookbalance session phases span Merge calls; closePhase fires the balancing end on completion and Close covers abandonment
	s.opt.Hooks.phaseStart(s.phase, shards, patterns)
}

func (s *MergeSession) closePhase() {
	if !s.phaseOpen {
		return
	}
	s.phaseOpen = false
	s.opt.Hooks.phaseEnd(s.phase)
}

// fold merges one shard's partial accumulators at the session's cursor,
// fires the per-shard hooks and, in the basic phase, runs the convergence
// check — before any snapshot can be taken at this boundary, since a
// snapshot with a due check still pending would resume into a different
// check cadence. It reports whether the phase is complete: its last shard
// is merged, or the basic phase just met the convergence tolerance. The
// caller then advances the session.
func (s *MergeSession) fold(part *charPartial) bool {
	if s.phase == PhaseBasic {
		for k := range s.total.basic {
			s.total.basic[k].merge(&part.basic[k])
		}
		s.patternsBasic += part.patterns
	} else {
		s.patternsBiased += part.patterns
	}
	for i := range part.enhanced {
		for z := range part.enhanced[i] {
			s.total.enhanced[i][z].merge(&part.enhanced[i][z])
		}
	}
	s.merged++
	s.opt.Hooks.patterns(part.patterns)
	s.opt.Hooks.shardMerged()
	if s.phase == PhaseBasic && s.checks {
		if worst, checked, stop := s.conv.check(s.total.basic, s.patternsBasic); checked {
			s.opt.Hooks.convergence(s.patternsBasic, worst)
			if stop {
				s.stopped = true
				s.earlyStopAt = s.patternsBasic
				s.opt.Hooks.earlyStop(s.patternsBasic)
			}
		}
	}
	return s.phaseComplete()
}

// phaseComplete reports whether the current phase has nothing left to
// merge: every shard of its budget is in, or the basic phase converged.
func (s *MergeSession) phaseComplete() bool {
	if s.phase == PhaseBiased {
		return s.merged == s.usedShards
	}
	return s.stopped || s.merged == len(s.plan)
}

// advance closes the completed current phase and either finishes the
// session (after the biased phase, or after the basic phase of a
// basic-only run) or opens the biased phase over the shards the basic
// phase actually consumed. boundary, when non-nil, runs between the close
// and the open, where a Snapshot already shows the biased phase at shard
// 0 — the phase-boundary checkpoint of Characterize.
func (s *MergeSession) advance(boundary func()) {
	s.closePhase()
	if s.phase == PhaseBiased {
		s.done = true
		return
	}
	s.usedShards = s.merged
	if !s.opt.Enhanced {
		s.done = true
		return
	}
	s.phase = PhaseBiased
	s.merged = 0
	if boundary != nil {
		boundary()
	}
	s.openPhase(s.usedShards, s.patternsBasic)
}

// settle advances past every completed phase.
func (s *MergeSession) settle(boundary func()) {
	for !s.done && s.phaseComplete() {
		s.advance(boundary)
	}
}

// Phase returns the phase the session is currently merging (PhaseBasic or
// PhaseBiased).
func (s *MergeSession) Phase() string { return s.phase }

// MergedShards returns the number of shards merged within the current
// phase — equivalently, the phase-relative index the next ShardResult
// must carry.
func (s *MergeSession) MergedShards() int { return s.merged }

// PhaseShards returns the number of shards the current phase will merge
// at most: the full plan for the basic phase, the basic phase's consumed
// shard count for the biased phase.
func (s *MergeSession) PhaseShards() int {
	if s.phase == PhaseBiased {
		return s.usedShards
	}
	return len(s.plan)
}

// Done reports whether every phase has completed and Finish may be
// called.
func (s *MergeSession) Done() bool { return s.done }

// EarlyStopped reports whether the basic phase converged before its full
// pattern budget, and at how many patterns.
func (s *MergeSession) EarlyStopped() (bool, int) { return s.stopped, s.earlyStopAt }

// validate rejects a ShardResult that cannot be merged at the session's
// current position, before any state is touched — a rejected result
// leaves the session unchanged, so the caller can discard the payload and
// have the shard recomputed.
func (s *MergeSession) validate(r ShardResult) error {
	if s.done {
		return fmt.Errorf("core: merge session for %s is already complete", s.module)
	}
	if r.Index != s.merged {
		return fmt.Errorf("core: shard %d out of order in the %s phase of %s (next is %d)",
			r.Index, s.phase, s.module, s.merged)
	}
	if want := s.plan[s.merged].patterns; r.Patterns != want {
		return fmt.Errorf("core: shard %d of %s carries %d patterns, plan says %d",
			r.Index, s.module, r.Patterns, want)
	}
	m := s.model.InputBits
	if s.phase == PhaseBasic {
		if len(r.Basic) != m {
			return fmt.Errorf("core: basic-phase shard %d of %s has %d basic accumulators, want %d",
				r.Index, s.module, len(r.Basic), m)
		}
	} else if len(r.Basic) != 0 {
		return fmt.Errorf("core: biased-phase shard %d of %s carries basic accumulators", r.Index, s.module)
	}
	if s.opt.Enhanced {
		if err := s.model.checkEnhancedRows(r.Enhanced); err != nil {
			return fmt.Errorf("core: shard %d of %s: %w", r.Index, s.module, err)
		}
	} else if len(r.Enhanced) != 0 {
		return fmt.Errorf("core: shard %d of %s carries enhanced accumulators in a basic-only run",
			r.Index, s.module)
	}
	return nil
}

// Merge folds the next shard's partial accumulators into the session.
// Results must arrive in phase-relative index order (r.Index ==
// MergedShards()); anything else is rejected without mutating the
// session. Merging the shard that completes a phase advances the session
// — possibly to Done — and merging the shard that satisfies the
// convergence tolerance truncates the basic phase exactly where
// Characterize would have stopped.
func (s *MergeSession) Merge(r ShardResult) error {
	if err := s.validate(r); err != nil {
		return err
	}
	if s.fold(s.view(r)) {
		s.settle(nil)
	}
	return nil
}

// view exposes a validated ShardResult as a charPartial over the
// session's reused scratch accumulators, so Merge allocates nothing per
// result. The accumulators alias the result's deviation samples, which
// fold copies.
func (s *MergeSession) view(r ShardResult) *charPartial {
	if s.scratch == nil {
		s.scratch = newCharPartial(s.model, 0, true, s.opt.Enhanced)
	}
	s.scratch.patterns = r.Patterns
	s.scratch.load(r.Basic, r.Enhanced)
	return s.scratch
}

// Snapshot captures the session as a Checkpoint — the same encoding the
// single-node crash-safety path writes — suitable for embedding in a
// coordinator's lease ledger and for ResumeMergeSession. The snapshot
// owns its slices; later Merges do not mutate it.
func (s *MergeSession) Snapshot() *Checkpoint {
	cp := baseCheckpoint(s.module, s.model.InputBits, &s.opt)
	cp.Phase = s.phase
	cp.ShardsMerged = s.merged
	cp.UsedShards = s.usedShards
	cp.PatternsBasic = s.patternsBasic
	cp.PatternsBiased = s.patternsBiased
	cp.EarlyStopped = s.stopped
	cp.EarlyStopAt = s.earlyStopAt
	cp.Basic, cp.EnhancedAcc = s.total.states()
	// The tracker mutates prev/prevCount in place at every check; the
	// snapshot must keep its own copies.
	cp.ConvNext = s.conv.nextCheck
	cp.ConvPrev = append([]float64(nil), s.conv.prev...)
	cp.ConvPrevCount = append([]int64(nil), s.conv.prevCount...)
	return &cp
}

// Finish extracts the fitted model from a completed session.
func (s *MergeSession) Finish() (*Model, error) {
	if !s.done {
		return nil, fmt.Errorf("core: merge session for %s is not complete (%s phase, %d/%d shards)",
			s.module, s.phase, s.merged, s.PhaseShards())
	}
	m := s.model.InputBits
	for k := range s.total.basic {
		s.model.Basic[k] = s.total.basic[k].coef()
	}
	if s.opt.Enhanced {
		s.model.Enhanced = make([][]Coef, m)
		for i := 1; i <= m; i++ {
			row := make([]Coef, len(s.total.enhanced[i-1]))
			for zb := range row {
				row[zb] = s.total.enhanced[i-1][zb].coef()
			}
			s.model.Enhanced[i-1] = row
		}
	}
	return s.model, s.model.Validate()
}

// Close fires the balancing PhaseEnd for a phase the session still holds
// open, so abandoning an unfinished session (coordinator shutdown, job
// cancellation) does not leak a span in observers. Closing a finished
// session is a no-op; a closed session must not be merged into again.
func (s *MergeSession) Close() { s.closePhase() }
