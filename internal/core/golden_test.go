package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdpower/internal/faultpoint"
)

// goldenTracePath holds the observable behaviour of Characterize under
// crash and resume: every hook event, the cursor of every checkpoint it
// saved, and a hash of each fitted model, across kills at every merged
// shard. TestCharacterizeGoldenTrace pins the merge, checkpoint and resume
// machinery against it, so a rewrite of that machinery must reproduce
// the recorded behaviour event for event.
const goldenTracePath = "testdata/characterize_trace.txt"

// goldenScenario is one run shape of the golden trace, killed at every
// merge count in [0, maxKill] (0: no fault armed).
type goldenScenario struct {
	name    string
	opt     CharacterizeOptions
	every   int
	maxKill int
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{"periodic", CharacterizeOptions{Patterns: 1280, Enhanced: true, Seed: 11}, 4, 21},
		{"early-stop-enhanced", CharacterizeOptions{Patterns: 2560, Enhanced: true, Seed: 5,
			ConvergeTol: 0.9, CheckEvery: 256}, 3, 14},
		{"early-stop-basic", CharacterizeOptions{Patterns: 1280, Seed: 5,
			ConvergeTol: 0.9, CheckEvery: 256}, 2, 11},
	}
}

// goldenTrace runs every scenario at the given worker count and renders
// the trace: per kill point, the killed run's events and outcome, then
// the resume run's.
func goldenTrace(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, sc := range goldenScenarios() {
		for kill := 0; kill <= sc.maxKill; kill++ {
			fmt.Fprintf(&b, "== %s kill=%d\n", sc.name, kill)
			path := filepath.Join(t.TempDir(), "ck.json")
			opt := sc.opt
			opt.Workers = workers
			opt.Checkpoint = CheckpointOptions{Path: path, Resume: true, EveryShards: sc.every}
			goldenRun(t, &b, "run", opt, kill)
			goldenRun(t, &b, "resume", opt, 0)
		}
	}
	return b.String()
}

// goldenRun characterizes once with core.merge armed to fail its kill-th
// hit (kill 0 arms nothing) and appends the run's events to b.
func goldenRun(t *testing.T, b *strings.Builder, label string, opt CharacterizeOptions, kill int) {
	t.Helper()
	faultpoint.Disarm()
	defer faultpoint.Disarm()
	if kill > 0 {
		if err := faultpoint.Arm(fmt.Sprintf("core.merge=error:after=%d", kill)); err != nil {
			t.Fatal(err)
		}
	}
	emit := func(format string, args ...any) {
		fmt.Fprintf(b, label+" "+format+"\n", args...)
	}
	opt.Hooks = &Hooks{
		PatternsSimulated: func(n int) { emit("patterns %d", n) },
		ShardMerged:       func() { emit("shard") },
		EarlyStop:         func(n int) { emit("stop %d", n) },
		PhaseStart: func(phase string, shards, patterns int) {
			emit("start %s %d %d", phase, shards, patterns)
		},
		PhaseEnd:    func(phase string) { emit("end %s", phase) },
		Convergence: func(n int, worst float64) { emit("conv %d %v", n, worst) },
		Resumed: func(phase string, shards, basic, biased int) {
			emit("resumed %s %d %d %d", phase, shards, basic, biased)
		},
		CheckpointSaved: func(err error) {
			if err != nil {
				emit("saved error %v", err)
				return
			}
			cp, lerr := LoadCheckpoint(opt.Checkpoint.Path)
			if lerr != nil {
				t.Fatalf("reading saved checkpoint: %v", lerr)
			}
			emit("saved %s %d %d %d %d stopped=%v/%d", cp.Phase, cp.ShardsMerged, cp.UsedShards,
				cp.PatternsBasic, cp.PatternsBiased, cp.EarlyStopped, cp.EarlyStopAt)
		},
	}
	model, err := Characterize(meterFor(t, "ripple-adder", 4), "ripple-adder", opt)
	switch {
	case errors.Is(err, faultpoint.ErrInjected):
		emit("killed")
	case err != nil:
		t.Fatalf("%s: %v", label, err)
	default:
		data, merr := json.Marshal(model)
		if merr != nil {
			t.Fatal(merr)
		}
		sum := sha256.Sum256(data)
		emit("model %s", hex.EncodeToString(sum[:]))
	}
	if _, serr := os.Stat(opt.Checkpoint.Path); err == nil && !os.IsNotExist(serr) {
		t.Fatalf("%s: checkpoint left behind by a completed run", label)
	}
}

// TestCharacterizeGoldenTrace replays every golden scenario at one and
// three workers and requires the committed trace, line for line.
func TestCharacterizeGoldenTrace(t *testing.T) {
	raw, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for _, workers := range []int{1, 3} {
		got := strings.Split(goldenTrace(t, workers), "\n")
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("workers=%d: trace diverges at line %d:\n got %q\nwant %q", workers, i+1, g, w)
			}
		}
	}
}
