package torture

import (
	"sync"
	"time"

	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/redis"
)

// membershipWorkload tortures the coordinated failure-detection layer
// (internal/membership) end to end: every node heartbeats into the
// arena-resident membership table while the schedule driver crashes and
// restarts serving nodes, and ONE membership Dead event — not per-lease
// expiry, not per-client discovery — drives recovery everywhere: the
// scheduler's leases are swept, the redis store is generation-fenced,
// and placement steers off the dead node via the liveness oracle. The
// last node is held OUT of the boot population and hot-plugs into a
// free slot mid-sweep: it joins under load, resyncs against the shared
// store, activates, and serves both subsystems. Restarted nodes rejoin
// their original slot under a bumped generation.
//
// Invariants:
//   - sched exactly-once: every task's DoneCell is incremented exactly
//     once even when the membership sweep re-dispatches tasks whose
//     runner died (the keeper's lease-expiry backstop is deliberately
//     slow, ~20ms, so timely recovery must come from the membership
//     path — a broken path shows up as the stall detector firing and,
//     for leaked completions, as a DoneCell above 1);
//   - redis: reads are never torn and never go backwards, a view fenced
//     at a dead generation never applies another write (zombie writers
//     observe ErrFenced and reattach under the current fence level),
//     and the quiescent store holds exactly each writer's last
//     committed value;
//   - hot-plug: the joining node's resync sees every committed floor
//     intact before it activates, and the quiescent rack converges to
//     every node Alive in the table.
type membershipWorkload struct {
	rackClient
	taskStorm
	tb    *membership.Table
	sweep *health.DeadSweep

	mu      sync.Mutex
	members []*membership.Member // by node id; nil until joined

	hot   int    // hot-plug node (the last); not in the boot population
	hotAt uint64 // global op count at which the hot node joins
}

func newMembershipWorkload() *membershipWorkload {
	return &membershipWorkload{
		rackClient: rackClient{kpw: 2, fenceable: true,
			writerRng: 0x80, writerCI: 0x800, readerRng: 0x91, readerCI: 0x900},
		taskStorm: taskStorm{submitRng: 0x70},
	}
}

func (w *membershipWorkload) Name() string { return "membership" }

// Tolerates: the control table and every transition travel over fabric
// atomics, and a corrupted heartbeat record just decodes as "no beat"
// (the checksum rejects it, phi absorbs the gap). But the redis entry
// payloads ride the cached write-back path, so silent corruption and
// dropped write-backs are out of contract — exactly redisWorkload's
// envelope.
func (w *membershipWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *membershipWorkload) clients(env *Env) int { return stormSubmitters + w.hot + 2 }

func (w *membershipWorkload) Prepare(env *Env) {
	f := env.Fab
	w.hot = env.Cfg.Nodes - 1
	// Hot-plug once the sweep is well under way: a quarter of all ops in,
	// the rack is loaded and the fault windows have opened.
	w.hotAt = uint64(w.clients(env)) * uint64(env.Cfg.OpsPerClient) / 4

	w.boot(env)
	w.s.SetNodeServing(w.hot, false) // gated until it hot-plugs

	keys := env.Cfg.Nodes * w.kpw
	w.seed(env, redis.NewRackStore(f, redis.RackStoreConfig{
		Slots: uint64(keys) * 8,
		// Crashes and fences abandon views; size for the sweep's churn.
		MaxViews:   4*env.Cfg.Nodes*(env.Cfg.Events+2) + 16,
		ArenaBytes: 16 << 20,
	}))

	w.tb = membership.New(f, membership.Config{
		HeartbeatTick: 100 * time.Microsecond,
		PhiSuspect:    3,
		PhiDead:       6,
		DeadStrikes:   2,
	})
	w.sweep = health.NewDeadSweep(func() health.SweepGates {
		return health.SweepGates{Sched: w.s, Store: w.store}
	})
	w.members = make([]*membership.Member, env.Cfg.Nodes)
	for id := 0; id < w.hot; id++ {
		n := f.Node(id)
		m, err := w.tb.JoinSlot(n, id)
		if err != nil {
			panic(err)
		}
		if env.Trace != nil {
			m.SetTrace(env.Trace.Writer(id))
		}
		if err := m.Activate(); err != nil {
			panic(err)
		}
		if id == 0 {
			// One observer runs the Dead sweep (reclaim leases, fence
			// views at the dead generation); node 0 never crashes, so the
			// sweep always has a live home.
			n0 := f.Node(0)
			m.Subscribe(func(ev membership.Event) { w.sweep.Dead(n0, ev) })
		}
		m.Start()
		w.members[id] = m
	}
	// Placement consults the table from here on. A crashed-but-undetected
	// node may still be chosen for a beat; the Dead sweep re-dispatches.
	w.s.SetLiveness(w.tb.Alive)
}

// rejoin puts node id back into the table under a bumped generation.
// The restart path and the quiescent repair of a false Dead verdict
// share it: both are the same protocol action.
func (w *membershipWorkload) rejoin(env *Env, id int) error {
	w.mu.Lock()
	old := w.members[id]
	w.mu.Unlock()
	if old != nil {
		old.Stop() // reap the previous incarnation's goroutines
	}
	m, err := w.tb.Join(env.Fab.Node(id))
	if err != nil {
		return err
	}
	if env.Trace != nil {
		m.SetTrace(env.Trace.Writer(id))
	}
	if err := m.Activate(); err != nil {
		return err
	}
	m.Start()
	w.mu.Lock()
	w.members[id] = m
	w.mu.Unlock()
	return nil
}

// HandleRestart reboots a restarted node's scheduler workers and rejoins
// it to its original membership slot (the restart-same-slot path: same
// node, same slot, bumped generation).
func (w *membershipWorkload) HandleRestart(env *Env, node int) {
	w.s.RebootNode(node)
	w.mu.Lock()
	joined := w.members[node] != nil
	w.mu.Unlock()
	if !joined {
		return // crashed before hot-plugging; the hot client joins itself
	}
	if err := w.rejoin(env, node); err != nil {
		env.Violatef(-1, "restart rejoin node %d: %v", node, err)
	}
}

func (w *membershipWorkload) Clients(env *Env) []func() {
	out := make([]func(), 0, w.clients(env))
	for i := 0; i < stormSubmitters; i++ {
		sub := i
		out = append(out, func() { w.submitter(env, sub) })
	}
	for id := 0; id < w.hot; id++ {
		node := id
		out = append(out, func() { w.writer(env, node) })
	}
	out = append(out, func() { w.reader(env, 0) }) // node 0 never crashes
	out = append(out, func() { w.hotplug(env) })
	return out
}

// hotplug is the tentpole scenario: the held-out last node joins the
// rack mid-sweep, under load and under the fault schedule. It claims a
// slot with a fresh generation, resyncs against the shared store (every
// committed floor must be readable and intact BEFORE it serves),
// activates, lifts its scheduler serving gate, and then runs the same
// single-writer stream every boot member runs.
func (w *membershipWorkload) hotplug(env *Env) {
	n := env.Fab.Node(w.hot)
	ci := 0xA00
	for env.Ops() < w.hotAt {
		time.Sleep(200 * time.Microsecond)
	}
	var m *membership.Member
	for m == nil {
		env.WaitAlive(n)
		bail := false
		ok := env.RunOp(n, func() {
			mm, err := w.tb.Join(n)
			if err != nil {
				env.Violatef(ci, "hot-plug join: %v", err)
				bail = true
				return
			}
			if env.Trace != nil {
				mm.SetTrace(env.Trace.Writer(w.hot))
			}
			// Resync while Joining: the shared store must be fully
			// readable at the committed floors before this node serves.
			v := w.attach(env, n)
			for k := range w.floors {
				f0 := w.floors[k].Load()
				key := w.key(k)
				val, okG := v.Get(key)
				seq, intact := uint64(0), false
				if okG {
					seq, intact = redisDecode(k, val)
				}
				if !okG || !intact || seq < f0 {
					env.Violatef(ci, "hot-plug resync key %s: seq=%d ok=%v intact=%v floor=%d", key, seq, okG, intact, f0)
				}
			}
			if err := mm.Activate(); err != nil {
				env.Violatef(ci, "hot-plug activate: %v", err)
				bail = true
				return
			}
			m = mm
		})
		if !ok {
			continue // crashed mid-join; the retry rejoins with a bumped gen
		}
		if bail {
			return
		}
	}
	m.Start()
	w.mu.Lock()
	w.members[w.hot] = m
	w.mu.Unlock()
	w.s.SetNodeServing(w.hot, true)
	w.writer(env, w.hot)
}

// stopMembers halts every member's goroutines so matrix sweeps don't
// leak heartbeat and detector loops into each other.
func (w *membershipWorkload) stopMembers() {
	w.mu.Lock()
	members := append([]*membership.Member(nil), w.members...)
	w.mu.Unlock()
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
}

func (w *membershipWorkload) Check(env *Env) {
	defer w.stopMembers()
	defer w.s.Stop()
	if !w.checkTasks(env) {
		return
	}
	w.checkFinal(env)

	// The quiescent rack converges to every node Alive. A false Dead
	// verdict is legitimate under phi (and SAFE — fencing already made
	// it consistent); its repair is the same rejoin protocol a restart
	// uses, so perform it rather than fail on it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allAlive := true
		for id := 0; id < env.Cfg.Nodes; id++ {
			if w.tb.Alive(id) {
				continue
			}
			allAlive = false
			w.mu.Lock()
			joined := w.members[id] != nil
			w.mu.Unlock()
			if joined && !env.Fab.Node(id).Crashed() {
				if err := w.rejoin(env, id); err != nil {
					env.Violatef(-1, "quiescent rejoin node %d: %v", id, err)
					return
				}
			}
		}
		if allAlive {
			return
		}
		if time.Now().After(deadline) {
			for id := 0; id < env.Cfg.Nodes; id++ {
				if !w.tb.Alive(id) {
					env.Violatef(-1, "quiescent rack: node %d never converged to Alive", id)
				}
			}
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}
