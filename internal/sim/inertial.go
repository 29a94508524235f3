package sim

import (
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

// The Inertial engine models inertial gate delay: a gate's output only
// changes if the new value persists at its inputs for the gate's full
// propagation delay. Pulses narrower than the delay are swallowed, as in
// real logic, so the Inertial engine counts FEWER glitch transitions than
// the transport-like EventDriven engine and at least as many as
// ZeroDelay. It exists for charge-model ablations (how much reported
// glitch power is filterable) and is selected with sim.Inertial.
//
// Implementation: input changes trigger immediate re-evaluation; the
// prospective output value is scheduled to appear after the gate delay.
// A newer evaluation that re-confirms the current output cancels any
// pending contrary transition (the inertial filter); one that contradicts
// the pending transition reschedules it.
//
// Scheduled transitions live on a time wheel of value-typed events that
// the simulator keeps across Apply calls, so a warmed-up simulator runs a
// cycle without allocating. Every delay is at least one unit, so an event
// is always scheduled into a later bucket than the one being processed,
// and within a bucket events sit in scheduling order: walking the wheel
// visits events in (time, seq) order.

// inertialEvent is a scheduled output change of one gate; its time is the
// index of the wheel bucket holding it.
type inertialEvent struct {
	seq  int // scheduling order; identifies the gate's live event
	gate netlist.GateID
	val  bool
}

// inertialPending is the live scheduled transition of one gate: the seq
// of its event (-1 if none) and the value it is heading to. Events whose
// seq no longer matches their gate's pending seq have been cancelled and
// are skipped.
type inertialPending struct {
	seq int
	val bool
}

func (s *Simulator) applyInertial(v logic.Word) {
	if s.pending == nil {
		s.pending = make([]inertialPending, s.nl.NumGates())
	}
	for i := range s.pending {
		s.pending[i].seq = -1
	}
	for t := range s.wheel {
		s.wheel[t] = s.wheel[t][:0]
	}
	s.seq = 0

	// Apply input edges at t = 0.
	for i, id := range s.inputNets {
		nv := v.Bit(i)
		if s.value[id] != nv {
			s.value[id] = nv
			s.toggles[id]++
			for _, g := range s.fanout[id] {
				s.evaluateInertial(g, 0)
			}
		}
	}
	for t := 0; t < len(s.wheel); t++ {
		for _, e := range s.wheel[t] {
			if s.pending[e.gate].seq != e.seq {
				continue // cancelled
			}
			s.pending[e.gate].seq = -1
			out := s.nl.GateOutput(e.gate)
			if s.value[out] == e.val {
				continue
			}
			s.value[out] = e.val
			s.toggles[out]++
			if s.recording {
				s.record = append(s.record, event{time: t, net: out, val: e.val})
			}
			for _, g := range s.fanout[out] {
				s.evaluateInertial(g, t)
			}
		}
	}
}

// evaluateInertial evaluates gate g at time t and schedules or cancels its
// output transition.
func (s *Simulator) evaluateInertial(g netlist.GateID, t int) {
	newVal := s.evalGate(g)
	out := s.nl.GateOutput(g)
	if p := &s.pending[g]; p.seq >= 0 {
		if p.val == newVal {
			return // already heading there
		}
		// Contradicts the pending transition: the pulse that caused it
		// was narrower than the gate delay — cancel it.
		p.seq = -1
	}
	if s.value[out] == newVal {
		return // stable at the right value, nothing to schedule
	}
	at := t + s.delay[g]
	for len(s.wheel) <= at {
		s.wheel = append(s.wheel, nil)
	}
	s.pending[g] = inertialPending{seq: s.seq, val: newVal}
	s.wheel[at] = append(s.wheel[at], inertialEvent{seq: s.seq, gate: g, val: newVal})
	s.seq++
}
