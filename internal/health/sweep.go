package health

import (
	"sync"

	"flacos/internal/fabric"
	"flacos/internal/membership"
	"flacos/internal/trace"
)

// SweepGates are the subsystems a Dead sweep remediates through. Every
// field is optional: nil gates are skipped.
type SweepGates struct {
	Sched      SchedGate
	Store      StoreGate
	Serverless []ServerlessGate
	// Trace, when set, records each store fence as a KViewFence event
	// in the observing node's ring.
	Trace *trace.Recorder
}

// DeadSweep is the rack's one Dead-event recovery sweep: for each
// {slot, generation} membership declares dead it reclaims the node's
// scheduler leases, fences its store views at the dead generation (so
// a zombie's writes bounce with ErrFenced) and re-places its serverless
// containers. Every live member's agent observes the same transition;
// only the first delivery acts.
//
// A crashed observer never claims a death, and a sweep cut short by
// its observer's crash releases its claim before the crash panic
// propagates, so the next observer's delivery runs it. Every step is
// idempotent or CAS/generation-fenced, so the rerun is safe.
type DeadSweep struct {
	gates func() SweepGates

	mu       sync.Mutex
	deadSeen map[[2]uint64]bool // {slot, gen} -> sweep claimed
}

// NewDeadSweep builds a sweep that reads its gates once per sweep, so
// racks that boot subsystems after membership still remediate them.
func NewDeadSweep(gates func() SweepGates) *DeadSweep {
	return &DeadSweep{gates: gates, deadSeen: make(map[[2]uint64]bool)}
}

// Dead runs the sweep for ev on behalf of observer from, whose fabric
// operations execute it. It reports whether this delivery ran the
// sweep: false for non-Dead events, duplicates and crashed observers.
func (s *DeadSweep) Dead(from *fabric.Node, ev membership.Event) bool {
	return s.run(from, ev, nil)
}

// run is Dead with a hook the Controller uses to record the death
// before the first sweep action.
func (s *DeadSweep) run(from *fabric.Node, ev membership.Event, claimed func()) bool {
	if ev.Kind != membership.EvDead || from.Crashed() {
		return false
	}
	key := [2]uint64{uint64(ev.Slot), ev.Generation}
	s.mu.Lock()
	if s.deadSeen[key] {
		s.mu.Unlock()
		return false
	}
	s.deadSeen[key] = true
	s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			if from.IsCrashPanic(r) {
				s.mu.Lock()
				delete(s.deadSeen, key)
				s.mu.Unlock()
			}
			panic(r)
		}
	}()

	if claimed != nil {
		claimed()
	}
	g := s.gates()
	// Lease reclaim first: queued work restarts fastest. A concurrent
	// keeper expiry of the same slot is harmless (both paths CAS).
	if g.Sched != nil {
		g.Sched.ReclaimNode(from, ev.Node)
	}
	if g.Store != nil {
		g.Store.FenceNode(from, ev.Node, ev.Generation)
		if g.Trace != nil {
			g.Trace.Writer(from.ID()).Emit(trace.SubRedis, trace.KViewFence, 0, uint64(ev.Node), ev.Generation)
		}
	}
	for _, sv := range g.Serverless {
		if sv != nil {
			sv.EvictNode(ev.Node)
		}
	}
	return true
}
