package torture

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/reliability"
	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/redis"
)

// healthWorkload tortures the gray-failure layer (internal/health) end
// to end: every node publishes health signals and runs the anomaly
// detector, a self-healing controller on node 0 consumes the unified
// membership+health event stream, and TWO independent gray-failure
// generators feed the detector while the schedule driver crashes and
// restarts nodes underneath it:
//
//   - the schedule's degrade windows add link hops to a victim at
//     runtime (the detector's direct LinkHops signal, plus genuine
//     latency drift on every op the victim performs);
//   - a "graygen" client plants seeded, scrub-detectable bit flips in
//     per-node sentinel regions, and each scrub pass that repairs one
//     charges the owning node's error EWMA through the health layer's
//     attribution feed (NodeSource.AddErrors).
//
// Each Degraded verdict runs the proactive drain — gate, evict, fence
// EARLY, re-place — against a live, loaded rack; each Recovered verdict
// rejoins the node under a bumped generation; a crash mid-anything lets
// EvDead win the race and the death sweep owns remediation.
//
// Invariants:
//   - sched exactly-once: every task's DoneCell is incremented exactly
//     once even while drains bench nodes mid-sweep and death sweeps
//     re-dispatch leases;
//   - zero fenced-zombie writes: after every completed drain a probe
//     view attached at the DRAINED generation must bounce with
//     ErrFenced — before the node is dead, not after. The planted
//     "drain-fence" break (skip the early fence) must make exactly this
//     checker fire;
//   - redis: reads are never torn and never go backwards, and the
//     quiescent store holds exactly each writer's last committed value;
//   - convergence: the quiescent rack returns to every node Alive with
//     no Degraded verdict standing.
type healthWorkload struct {
	rackClient
	taskStorm
	env   *Env
	tb    *membership.Table
	layer *health.Layer
	ctl   *health.Controller
	scrub *reliability.Scrubber
	sentG fabric.GPtr

	mu       sync.Mutex
	members  []*membership.Member // by node id
	agents   []*health.Agent      // by node id
	srcs     []*health.NodeSource // by node id (stable across rejoins)
	rejoinMu sync.Mutex           // serializes whole-node rejoin sequences
}

// graygenBurst is how many consecutive flips the graygen client plants
// on one victim before cooling down — long enough to push the error
// EWMA over the Degraded threshold, short enough that the victim
// recovers and the drain/rejoin cycle runs repeatedly per sweep.
const graygenBurst = 8

func newHealthWorkload() *healthWorkload {
	return &healthWorkload{
		rackClient: rackClient{kpw: 2, fenceable: true,
			writerRng: 0xE0, writerCI: 0xE00, readerRng: 0xF1, readerCI: 0xF00},
		taskStorm: taskStorm{submitRng: 0xD0},
	}
}

func (w *healthWorkload) Name() string { return "health" }

// Tolerates: crashes and link degradation are the point. The redis
// entry payloads and the health records ride the cached write-back
// path, so silent corruption and dropped write-backs are out of
// contract (a corrupted health record is merely rejected by its
// checksum, but the store payloads cannot survive it) — the graygen
// client plants its own, attributable corruption instead.
func (w *healthWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *healthWorkload) clients(env *Env) int { return stormSubmitters + env.Cfg.Nodes + 2 }

func (w *healthWorkload) Prepare(env *Env) {
	f := env.Fab
	w.env = env
	nodes := env.Cfg.Nodes
	w.boot(env)

	keys := nodes * w.kpw
	w.seed(env, redis.NewRackStore(f, redis.RackStoreConfig{
		// Extra slot headroom for the zombie-probe keys a broken fence
		// path would actually write.
		Slots: uint64(keys+nodes) * 8,
		// Fences (proactive drains AND death sweeps) abandon views, and
		// every completed drain attaches one probe view; size for churn.
		MaxViews:   4*nodes*(env.Cfg.Events+2) + 3*env.Cfg.OpsPerClient + 64,
		ArenaBytes: 16 << 20,
	}))

	// Per-node sentinel lines the graygen client corrupts and the
	// scrubber guards: the scrub->attribute->repair loop is how at-rest
	// corruption becomes a node-charged error signal.
	w.scrub = reliability.NewScrubber(f)
	w.sentG = f.Reserve(uint64(nodes)*fabric.LineSize, fabric.LineSize)
	for id := 0; id < nodes; id++ {
		r := w.sentRegion(id)
		f.WriteAtHome(r.G, w.sentPattern(id))
		w.scrub.Protect(r)
	}

	w.tb = membership.New(f, membership.Config{
		HeartbeatTick: 100 * time.Microsecond,
		PhiSuspect:    3,
		PhiDead:       6,
		DeadStrikes:   2,
	})
	w.layer = health.New(w.tb, health.Config{
		Tick:         100 * time.Microsecond,
		EnterStrikes: 2,
		ExitStrikes:  4,
	})
	w.members = make([]*membership.Member, nodes)
	w.agents = make([]*health.Agent, nodes)
	w.srcs = make([]*health.NodeSource, nodes)
	for id := 0; id < nodes; id++ {
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
		m.Start()
		w.members[id] = m
		w.srcs[id] = health.NewNodeSource(n, w.s)
		a := w.layer.Join(m, w.srcs[id])
		if env.Trace != nil {
			a.SetTrace(env.Trace.Writer(id))
		}
		a.Start()
		w.agents[id] = a
	}

	// The controller rides node 0's event stream (node 0 never crashes,
	// and its health agent evaluates every slot, so one stream carries
	// the whole rack's verdicts). It owns the death sweep too — the
	// classic EvDead hook lives inside the same pipeline here.
	w.ctl = health.NewController(w.members[0], health.ControllerConfig{
		Sched:   w.s,
		Store:   w.store,
		Rejoin:  w.ctlRejoin,
		OnStage: w.onStage,
		From:    f.Node(0),
	})
	if env.Trace != nil {
		w.ctl.SetTrace(env.Trace.Writer(0))
	}
	w.s.SetLiveness(w.tb.Alive)
}

func (w *healthWorkload) sentRegion(id int) reliability.Region {
	return reliability.Region{G: w.sentG.Add(uint64(id) * fabric.LineSize), Size: fabric.LineSize}
}

func (w *healthWorkload) sentPattern(id int) []byte {
	b := make([]byte, fabric.LineSize)
	for i := range b {
		b[i] = byte(id*37 + i*11 + 5)
	}
	return b
}

// onStage is the fenced-zombie-write checker: the moment a drain
// completes, a view attached at the DRAINED generation must already be
// unable to write — the early fence ran BEFORE the node died, which is
// the whole point of proactive draining. The planted "drain-fence"
// break skips that fence, and this probe is what must catch it.
func (w *healthWorkload) onStage(st health.Stage, node int, gen uint64) {
	if st != health.StageDrained {
		return
	}
	env := w.env
	n := env.Fab.Node(node)
	var err error
	if !env.RunOp(n, func() {
		pv := w.store.AttachGen(n, gen)
		err = pv.Set(fmt.Sprintf("zk-%d", node), []byte("zombie"), 0)
		// Release the probe's quiescence reservation; the view is never
		// used again.
		w.store.FenceView(env.Fab.Node(0), pv.ID())
	}) {
		return // node died mid-probe; the death sweep owns it now
	}
	if err == nil {
		env.Violatef(-1, "fenced-zombie write applied: node %d gen %d accepted a SET after its drain's fence stage", node, gen)
	} else if !errors.Is(err, redis.ErrFenced) {
		env.Violatef(-1, "zombie probe node %d gen %d: want ErrFenced, got %v", node, gen, err)
	}
}

// ctlRejoin is the controller's Rejoin hook: bring a recovered node
// back under a bumped generation. Node 0 never rejoins through the
// pipeline — the controller (and its event subscription) lives on node
// 0's member, so replacing it would orphan the controller.
func (w *healthWorkload) ctlRejoin(node int, gen uint64) error {
	if node == 0 {
		return fmt.Errorf("health torture: node 0 hosts the controller and does not self-rejoin")
	}
	if w.env.Fab.Node(node).Crashed() {
		return fmt.Errorf("health torture: node %d crashed before rejoin", node)
	}
	return w.rejoinNode(w.env, node)
}

// rejoinNode replaces node id's member AND health agent under a bumped
// generation — the health agent publishes records stamped with its
// member's generation, so the two always rejoin together. Controller
// recovery, crash restart, and quiescent repair all share it.
func (w *healthWorkload) rejoinNode(env *Env, id int) error {
	w.rejoinMu.Lock()
	defer w.rejoinMu.Unlock()
	n := env.Fab.Node(id)
	w.mu.Lock()
	oldM, oldA := w.members[id], w.agents[id]
	w.mu.Unlock()
	if oldA != nil {
		oldA.Stop()
	}
	if oldM != nil {
		oldM.Stop()
	}
	var m *membership.Member
	ok := env.RunOp(n, func() {
		mm, err := w.tb.Join(n)
		if err != nil {
			panic(err)
		}
		if env.Trace != nil {
			mm.SetTrace(env.Trace.Writer(id))
		}
		if err := mm.Activate(); err != nil {
			panic(err)
		}
		m = mm
	})
	if !ok {
		return fmt.Errorf("node %d crashed during rejoin", id)
	}
	m.Start()
	a := w.layer.Join(m, w.srcs[id])
	if env.Trace != nil {
		a.SetTrace(env.Trace.Writer(id))
	}
	a.Start()
	w.mu.Lock()
	w.members[id], w.agents[id] = m, a
	w.mu.Unlock()
	return nil
}

// HandleRestart reboots a restarted node's scheduler workers and
// rejoins member+agent under a bumped generation; the controller's
// EvJoin hook then reopens whatever gates the death sweep closed.
func (w *healthWorkload) HandleRestart(env *Env, node int) {
	w.s.RebootNode(node)
	if err := w.rejoinNode(env, node); err != nil {
		env.Violatef(-1, "restart rejoin node %d: %v", node, err)
	}
}

func (w *healthWorkload) Clients(env *Env) []func() {
	out := make([]func(), 0, w.clients(env))
	for i := 0; i < stormSubmitters; i++ {
		sub := i
		out = append(out, func() { w.submitter(env, sub) })
	}
	for id := 0; id < env.Cfg.Nodes; id++ {
		node := id
		out = append(out, func() { w.writer(env, node) })
	}
	out = append(out, func() { w.reader(env, 0) }) // node 0 never crashes
	out = append(out, func() { w.graygen(env) })
	return out
}

// graygen is the seeded gray-failure generator: bursts of single-bit
// flips against one victim's sentinel line, each one scrubbed, charged
// to the victim's error EWMA, and repaired — at-rest corruption
// surfacing as a node-health signal without the node ever observing the
// fault itself. The cool-down between bursts lets the EWMA decay so the
// victim recovers and the drain/rejoin cycle runs again.
func (w *healthWorkload) graygen(env *Env) {
	rng := env.Rand(0xC3)
	ci := 0xC00
	nodes := env.Cfg.Nodes
	completed := 0
	for completed < env.Cfg.OpsPerClient {
		victim := 1 + rng.Intn(nodes-1) // node 0 hosts the controller
		for b := 0; b < graygenBurst && completed < env.Cfg.OpsPerClient; b++ {
			word := w.sentG.Add(uint64(victim)*fabric.LineSize + uint64(rng.Intn(fabric.LineSize/8))*8)
			env.Fab.Faults().FlipBitAtHome(env.Fab, word, uint(rng.Intn(64)))
			bad := w.scrub.ScrubOnce()
			if len(bad) == 0 {
				env.Violatef(ci, "scrub pass missed a planted flip on node %d", victim)
			}
			for _, r := range bad {
				id := int(uint64(r.G-w.sentG) / fabric.LineSize)
				w.srcs[id].AddErrors(1)
				w.scrub.Repair(r, w.sentPattern(id))
			}
			completed++
			env.OpDone()
			time.Sleep(50 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopAll halts every member's and agent's goroutines so matrix sweeps
// don't leak detector loops into each other.
func (w *healthWorkload) stopAll() {
	w.mu.Lock()
	members := append([]*membership.Member(nil), w.members...)
	agents := append([]*health.Agent(nil), w.agents...)
	w.mu.Unlock()
	for _, a := range agents {
		if a != nil {
			a.Stop()
		}
	}
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
}

func (w *healthWorkload) Check(env *Env) {
	defer w.stopAll()
	defer w.s.Stop()
	if !w.checkTasks(env) {
		return
	}

	// Drains fence views, never writes: the quiescent store still holds
	// every writer's last committed value.
	w.checkFinal(env)

	// Convergence: with faults off, every node returns to Alive and
	// every Degraded verdict clears (the EWMAs decay, the recovery
	// hysteresis flips the verdict, the controller rejoins). A false
	// Dead verdict is legitimate under phi; its repair is the same
	// rejoin protocol, so perform it rather than fail on it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := true
		for id := 0; id < env.Cfg.Nodes; id++ {
			if !w.tb.Alive(id) {
				healthy = false
				if !env.Fab.Node(id).Crashed() {
					if err := w.rejoinNode(env, id); err != nil {
						env.Violatef(-1, "quiescent rejoin node %d: %v", id, err)
						return
					}
				}
			} else if w.layer.Degraded(id) {
				healthy = false
			}
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			for id := 0; id < env.Cfg.Nodes; id++ {
				if !w.tb.Alive(id) {
					env.Violatef(-1, "quiescent rack: node %d never converged to Alive", id)
				} else if w.layer.Degraded(id) {
					env.Violatef(-1, "quiescent rack: node %d still under a Degraded verdict", id)
				}
			}
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}
