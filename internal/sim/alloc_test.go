package sim

import (
	"math/rand"
	"testing"

	"hdpower/internal/cells"
	"hdpower/internal/dwlib"
	"hdpower/internal/netlist"
)

// everyKindCircuit builds a deep random DAG in which every cells.Kind
// appears several times, so the allocation pins cover evalGate's generic
// branch (And3, Aoi21, ...) as well as the inlined common kinds.
func everyKindCircuit(t testing.TB) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := netlist.New("every-kind")
	bus := n.AddInputBus("a", 12)
	pool := append([]netlist.NetID(nil), bus.Nets...)
	var outs []netlist.NetID
	for round := 0; round < 6; round++ {
		for _, kind := range cells.Kinds() {
			in := make([]netlist.NetID, cells.Lookup(kind).NumInputs)
			for i := range in {
				// Bias towards recent nets for depth and reconvergence.
				lo := len(pool) / 2
				in[i] = pool[lo+rng.Intn(len(pool)-lo)]
			}
			out := n.AddGate(kind, in...)
			pool = append(pool, out)
			outs = append(outs, out)
		}
	}
	n.MarkOutputBus("y", outs[len(outs)-8:])
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestApplyAllocFree pins the timed engines at zero allocations per
// Settle+Apply once a simulator has seen a few transients: the event
// engine's time wheel and the inertial engine's queue are reused across
// cycles. The count is taken on a clone, as the worker pools use them.
func TestApplyAllocFree(t *testing.T) {
	circuits := map[string]*netlist.Netlist{
		"every-kind":       everyKindCircuit(t),
		"csa-multiplier-8": dwlib.CSAMult(8, 8),
		"booth-wallace-8":  dwlib.BoothWallaceMult(8),
	}
	for name, nl := range circuits {
		for _, engine := range []Engine{EventDriven, Inertial} {
			s, err := New(nl, engine)
			if err != nil {
				t.Fatal(err)
			}
			c := s.Clone()
			stream := randomStream(c.NumInputBits(), 64, 3)
			// Warm up on every pair so the wheel and queue reach their
			// high-water marks, then measure the same pairs again.
			step := func(i int) {
				c.Settle(stream[i%len(stream)])
				c.Apply(stream[(i+1)%len(stream)])
			}
			for i := range stream {
				step(i)
			}
			i := 0
			allocs := testing.AllocsPerRun(len(stream), func() {
				step(i)
				i++
			})
			if allocs != 0 {
				t.Errorf("%s/%s: %.1f allocs per Settle+Apply, want 0", name, engine, allocs)
			}
		}
	}
}
