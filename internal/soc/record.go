package soc

// Schedule recording: the hooks a replay engine (internal/replay) attaches
// to a full timing run so the run's event schedule can later be re-evaluated
// analytically under new timing parameters.
//
// Two things are recorded. Every accelerator invocation is reported through
// RecordInvoke with the exact inputs the model saw (parameters and the
// concurrency level) and the timing it returned. And whenever the
// event-horizon cycle skipper is about to jump a frozen window whose ONLY
// terminating event is a single accelerator completion — provable from live
// simulator state, see maybeCertify — the window is certified through
// RecordQuietJump. A certified window is the soundness anchor for replaying
// an accelerator-latency delta as a rigid time shift: everything after the
// completion is a pure time translation of the recorded run as long as the
// shifted completion still lands strictly after the window's start (the
// replay engine enforces that margin, plus DRAM-model-specific conditions).

import "mosaicsim/internal/mem"

// ScheduleRecorder observes the events a timing run must expose for
// schedule-capture replay. Implementations must be cheap: the hooks run on
// the simulating goroutine.
type ScheduleRecorder interface {
	// RecordInvoke reports one accelerator invocation: the model inputs
	// (params, concurrent), the issue and completion cycles, and the model's
	// result. params is the live slice — implementations must copy it.
	RecordInvoke(name string, params []int64, concurrent int, issue, complete int64, res AccelResult)
	// RecordQuietJump certifies the frozen window (from, target): at cycle
	// from every component is frozen and the single event ending the window
	// is an accelerator completion at cycle target. coreStalls holds the
	// per-cycle stall increments each core accrues across the window, in
	// Cores order, zeroed for cores that already retired their trace.
	RecordQuietJump(from, target int64, coreStalls []StallSample)
}

// SetRecorder attaches (or, with nil, detaches) a schedule recorder. It must
// be called before Run. Attaching also enables the SimpleDRAM arrival log,
// which the replay engine needs to re-verify the bandwidth budget under
// shifted timings.
func (s *System) SetRecorder(r ScheduleRecorder) {
	s.recorder = r
	if s.accel != nil {
		if r == nil {
			s.accel.onInvoke = nil
		} else {
			s.accel.onInvoke = r.RecordInvoke
		}
	}
	if r != nil {
		s.Hier.EnableDRAMAccessLog()
	}
}

// maybeCertify runs at a horizon jump (every component confirmed frozen at
// now, jump target computed) and certifies the window to the recorder iff
// the ONLY event that can end it is a single accelerator completion at
// target. The conditions, each load-bearing for the rigid-shift replay
// argument:
//
//   - uniform tile clocks: the clock-edge recurrence is then invariant under
//     time translation (mixed clocks give accumulators an absolute phase);
//   - no per-cycle DRAM throttle accrual (thrTick == 0): a throttled stretch
//     scales with the window length;
//   - the hierarchy is drained with no future self-events;
//   - no message is in flight anywhere in the fabric;
//   - the accelerator manager holds exactly one pending release, at target;
//   - exactly one core holds exactly one pending completion, at target, with
//     nothing else outstanding; every other core has no self-scheduled event.
//
// Anything else in flight — a second completion hiding behind the heap head,
// a gated mispredict launch, a future fabric arrival — makes the window's end
// multi-causal and the certificate is simply not issued (replay then falls
// back to full simulation for deltas that would move this completion).
func (s *System) maybeCertify(now, target int64, slots []tileSlot, thrTick int64, uniformClocks bool) {
	if !uniformClocks || thrTick != 0 || s.accel == nil || !s.accel.soleEventAt(target) {
		return
	}
	if s.Hier.Busy() || s.Hier.NextEvent(now) < mem.HorizonNone {
		return
	}
	if s.Fabric.Pending() != 0 {
		return
	}
	invoker := -1
	for i, c := range s.Cores {
		if c.SoleCompletionAt(now, target) {
			if invoker >= 0 {
				return // two candidate completions: not sole-event
			}
			invoker = i
		} else if c.NextEvent(now) != mem.HorizonNone {
			return
		}
	}
	if invoker < 0 {
		return
	}
	stalls := make([]StallSample, len(s.Cores))
	for i, c := range s.Cores {
		// Done tiles are skipped by the jump's stall replay; mirror that so
		// the recorded per-cycle increments match what an extended (or
		// shortened) window would actually accrue.
		if p := s.tilePos[c.ID]; !s.tiles[p].Done() {
			stalls[i] = slots[p].delta
		}
	}
	s.recorder.RecordQuietJump(now, target, stalls)
}
