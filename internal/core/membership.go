package core

import (
	"sync"

	"flacos/internal/health"
	"flacos/internal/membership"
)

// membershipState is the rack's membership wiring: the table, each
// node's member handle, and the Dead sweep that makes the rack-wide
// event stream drive recovery exactly once per death.
type membershipState struct {
	mu      sync.Mutex
	table   *membership.Table
	members []*membership.Member
	sweep   *health.DeadSweep
}

// EnableMembership boots the coordinated failure-detection layer
// (internal/membership) over this rack: every node joins slot i=node i,
// activates, and starts its heartbeat publisher and detector agent. The
// scheduler's placement immediately consults the table's liveness
// oracle, and ONE membership Dead event drives recovery everywhere:
//
//   - sched reclaims every lease the dead node held (one sweep, not
//     per-lease expiry),
//   - the redis RackStore (if booted) fences the dead node's views at
//     its generation, so zombie writes bounce with ErrFenced,
//   - every serverless control plane re-places the dead node's warm
//     containers on live nodes.
//
// Recovery is health.DeadSweep, deduplicated on (slot, generation):
// every live member's agent observes the same transition, but only the
// first live observer's delivery acts. Idempotent; later calls return
// the same table.
func (r *Rack) EnableMembership(cfg membership.Config) *membership.Table {
	r.mem.mu.Lock()
	if r.mem.table != nil {
		t := r.mem.table
		r.mem.mu.Unlock()
		return t
	}
	table := membership.New(r.Fabric, cfg)
	r.mem.table = table
	r.mem.sweep = health.NewDeadSweep(r.sweepGates)
	r.mem.mu.Unlock()

	r.Scheduler().SetLiveness(table.Alive)
	tr := r.Trace()
	members := make([]*membership.Member, r.Fabric.NumNodes())
	for i := 0; i < r.Fabric.NumNodes(); i++ {
		n := r.Fabric.Node(i)
		m, err := table.JoinSlot(n, i)
		if err != nil {
			panic("core: membership boot join failed: " + err.Error())
		}
		if tr != nil {
			m.SetTrace(tr.Writer(i))
		}
		if err := m.Activate(); err != nil {
			panic("core: membership boot activate failed: " + err.Error())
		}
		m.Subscribe(func(ev membership.Event) { r.mem.sweep.Dead(n, ev) })
		m.Start()
		members[i] = m
	}
	r.mem.mu.Lock()
	r.mem.members = members
	r.mem.mu.Unlock()
	return table
}

// Membership returns the rack's membership table, or nil before
// EnableMembership.
func (r *Rack) Membership() *membership.Table {
	r.mem.mu.Lock()
	defer r.mem.mu.Unlock()
	return r.mem.table
}

// sweepGates is what the Dead sweep remediates through, read per sweep:
// the store and the serverless control planes may boot after
// membership, and membership recovery must not boot them itself.
func (r *Rack) sweepGates() health.SweepGates {
	g := health.SweepGates{Sched: r.Scheduler()}
	if r.redisBooted.Load() {
		g.Store = r.redis
	}
	r.ctlMu.Lock()
	for _, ctl := range r.ctls {
		g.Serverless = append(g.Serverless, ctl)
	}
	r.ctlMu.Unlock()
	g.Trace = r.Trace()
	return g
}

// StopMembership halts every member's goroutines (Shutdown calls this).
func (r *Rack) StopMembership() {
	r.mem.mu.Lock()
	members := r.mem.members
	r.mem.mu.Unlock()
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
}
