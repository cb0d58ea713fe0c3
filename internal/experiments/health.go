package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/metrics"
	"flacos/internal/redis"
	"flacos/internal/sched"
)

// HealthConfig parameterizes the gray-failure remediation experiment.
type HealthConfig struct {
	// Nodes sizes the rack. The last node is the gray-failure victim;
	// node 0 hosts the self-healing controller and never degrades.
	Nodes int
	// RampHops is the ascending link-degradation schedule injected on the
	// victim (extra interconnect hops per home-memory access). The first
	// level should be at or above the anomaly detector's LinkHops
	// threshold so proactive mode drains at the foot of the ramp.
	RampHops []int
	// TasksPerLevel is how many closed-loop tasks each mode runs at each
	// ramp level (and in the healthy warmup) — the requests whose fabric
	// cost tail is the experiment's headline.
	TasksPerLevel int
	// Clients is the closed-loop submitter parallelism.
	Clients int
	// AtomicsPerTask is each task's fabric work: home-memory atomics that
	// pay the full (degraded) hop cost on whichever node executes them.
	AtomicsPerTask int
	// Gate is the required baseline/proactive p99 task-cost ratio under
	// degradation: proactive draining must improve the tail by at least
	// this factor or the experiment fails.
	Gate float64
}

// DefaultHealth matches the acceptance setup: a 4-node rack, a
// three-level degradation ramp on one node, and a 1.2x tail gate.
func DefaultHealth() HealthConfig {
	return HealthConfig{
		Nodes:          4,
		RampHops:       []int{4, 10, 24},
		TasksPerLevel:  240,
		Clients:        4,
		AtomicsPerTask: 96,
		Gate:           1.2,
	}
}

// Health measures the health layer (internal/health) end to end: the
// anomaly detector plus the self-healing controller against a
// liveness-only baseline, under a SetLinkDegradation ramp on one node of
// the rack.
//
// Two clocks, each used where it is honest. Task latency is VIRTUAL
// nanoseconds — each task records its executing node's deterministic
// fabric cost, so the tail comparison is reproducible and independent of
// host scheduling (a degraded node's tasks cost more because every
// home-memory atomic pays the extra hops). Remediation timings
// (degrade->drained, crash->Dead, rejoin) are WALL nanoseconds, because
// the detectors are ticker-driven: virtual time does not advance while
// an anomaly sits undetected.
//
//   - Proactive mode: membership + health agents on every node + the
//     drain -> fence -> re-place controller on node 0. The detector sees
//     the hop ramp, raises EvDegraded, and the controller gates the
//     victim out of scheduling and fences its store generation EARLY —
//     while the node is still alive. Measured: degrade->drained wall
//     latency, steady-state task cost under the ramp (the victim serves
//     nothing, so the tail stays healthy), the zombie probe (a view at
//     the drained generation must observe ErrFenced before any death),
//     recovery rejoin when the ramp clears, and a crash round (dead
//     sweep, restart, rejoin, post-death fence).
//   - Reactive baseline: membership only. Phi-accrual never declares the
//     gray node dead — it heartbeats on time, just slowly — so every
//     task placed there pays the degraded link for the whole ramp.
//
// The returned bool reports failure: the drain or rejoin never
// completing, a zombie write leaking through the early or post-death
// fence, the baseline's gray node being declared dead (which would
// invalidate the comparison), a broken exactly-once ledger, or the
// proactive tail improvement missing the gate.
func Health(cfg HealthConfig) (*Result, bool) {
	res := &Result{
		Name:   "Health: gray-failure anomaly detection and self-healing drain vs liveness-only baseline",
		Table:  metrics.NewTable("phase", "mode", "metric", "value"),
		Ratios: map[string]float64{},
	}
	var gates []string
	gatef := func(format string, args ...any) {
		gates = append(gates, fmt.Sprintf(format, args...))
	}
	victim := cfg.Nodes - 1

	// --- Proactive mode: health layer + controller. ---
	pro := newHealthRack(cfg, true)
	proHealthy := metrics.NewHistogram()
	pro.runPhase(cfg, cfg.TasksPerLevel, proHealthy)

	preGen := pro.generation(victim)
	degradeAt := time.Now()
	pro.f.Node(victim).SetLinkDegradation(cfg.RampHops[0])
	select {
	case <-pro.drained:
		res.Table.AddRow("detect", "proactive", "degrade -> drained (wall)",
			ns(float64(time.Since(degradeAt).Nanoseconds())))
	case <-time.After(memWaitTimeout):
		gatef("proactive drain never completed after the first ramp level")
	}
	// The early-fence zombie probe, BEFORE any death: the drained node is
	// alive, but a view carrying its pre-drain generation must already be
	// write-dead.
	if err := pro.store.AttachGen(pro.f.Node(victim), preGen).Set("warm", []byte("necro"), 0); !errors.Is(err, redis.ErrFenced) {
		gatef("early fence leaked: pre-drain view wrote through while the node was still alive (err=%v)", err)
	}
	res.Table.AddRow("fencing", "proactive", "zombie write while drained node still alive", "fenced")

	proDeg := metrics.NewHistogram()
	for _, hops := range cfg.RampHops {
		pro.f.Node(victim).SetLinkDegradation(hops)
		pro.runPhase(cfg, cfg.TasksPerLevel, proDeg)
	}

	// Ramp clears: the detector's hysteresis flips the verdict back and
	// the controller rejoins the victim under a bumped generation.
	recoverAt := time.Now()
	pro.f.Node(victim).SetLinkDegradation(0)
	select {
	case <-pro.rejoined:
		res.Table.AddRow("recover", "proactive", "ramp clear -> rejoined (wall)",
			ns(float64(time.Since(recoverAt).Nanoseconds())))
	case <-time.After(memWaitTimeout):
		gatef("proactive rejoin never completed after the ramp cleared")
	}
	if d, ok := pro.waitServes(victim); ok {
		res.Table.AddRow("recover", "proactive", "rejoined -> victim serving again (wall)",
			ns(float64(d.Nanoseconds())))
	} else {
		gatef("rejoined victim never served a task again")
	}

	// Crash round: dead beats degraded — the controller's death sweep
	// (gate, reclaim, post-death fence) and the crash-restart rejoin.
	if detect, complete, leak, ok := pro.crashRound(cfg, victim); ok {
		res.Table.AddRow("crash", "proactive", "crash -> Dead (wall)",
			ns(float64(detect.Nanoseconds())))
		res.Table.AddRow("crash", "proactive", "crash -> burst complete (wall)",
			ns(float64(complete.Nanoseconds())))
		if leak {
			gatef("post-death fence leaked: dead-generation view wrote through after restart")
		} else {
			res.Table.AddRow("fencing", "proactive", "zombie write after crash+restart", "fenced")
		}
	} else {
		gatef("crash round timed out (detection, completion, or restart rejoin)")
	}
	if d, ok := pro.waitServes(victim); ok {
		res.Table.AddRow("crash", "proactive", "restart rejoin -> victim serving again (wall)",
			ns(float64(d.Nanoseconds())))
	} else {
		gatef("crash-restarted victim never served a task again")
	}
	if !pro.checkExactlyOnce(res) {
		gatef("proactive mode broke exactly-once completion")
	}
	pro.stop()

	// --- Reactive baseline: membership only. ---
	rea := newHealthRack(cfg, false)
	reaHealthy := metrics.NewHistogram()
	rea.runPhase(cfg, cfg.TasksPerLevel, reaHealthy)
	reaDeg := metrics.NewHistogram()
	for _, hops := range cfg.RampHops {
		rea.f.Node(victim).SetLinkDegradation(hops)
		rea.runPhase(cfg, cfg.TasksPerLevel, reaDeg)
	}
	if rea.tb.Alive(victim) {
		res.Table.AddRow("detect", "liveness-only baseline", "gray victim declared Dead",
			"never (heartbeats keep flowing)")
	} else {
		// A dead verdict on a slow-but-beating node would mean the
		// baseline measured crash recovery, not gray failure.
		gatef("baseline declared the gray (alive, heartbeating) victim dead")
	}
	rea.f.Node(victim).SetLinkDegradation(0)
	if !rea.checkExactlyOnce(res) {
		gatef("baseline mode broke exactly-once completion")
	}
	rea.stop()

	for _, row := range []struct {
		phase, mode string
		h           *metrics.Histogram
	}{
		{"healthy", "proactive", proHealthy},
		{"healthy", "liveness-only baseline", reaHealthy},
		{"degraded", "proactive", proDeg},
		{"degraded", "liveness-only baseline", reaDeg},
	} {
		s := row.h.Summarize()
		res.Table.AddRow(row.phase, row.mode, "task fabric cost (virtual) p50/p99",
			fmt.Sprintf("%s / %s", ns(s.P50), ns(s.P99)))
	}

	proS, reaS := proDeg.Summarize(), reaDeg.Summarize()
	tailRatio, meanRatio := 0.0, 0.0
	if proS.P99 > 0 {
		tailRatio = reaS.P99 / proS.P99
	}
	if m := proDeg.Mean(); m > 0 {
		meanRatio = reaDeg.Mean() / m
	}
	res.Ratios["degraded p99 baseline/proactive"] = tailRatio
	res.Ratios["degraded mean baseline/proactive"] = meanRatio
	if tailRatio < cfg.Gate {
		gatef("proactive drain improved the degraded tail %.2fx over the baseline, want >= %.2fx", tailRatio, cfg.Gate)
	}
	for _, g := range gates {
		res.Table.AddRow("GATE", "FAIL", g, "")
	}

	res.Bench = healthBench(cfg)
	return res, len(gates) > 0
}

// healthRack is one mode's rack: accounting fabric, tuned scheduler,
// fenced store, membership on every node — plus the health layer and the
// self-healing controller in proactive mode.
type healthRack struct {
	f     *fabric.Fabric
	s     *sched.Scheduler
	store *redis.RackStore
	tb    *membership.Table
	layer *health.Layer      // proactive only
	ctl   *health.Controller // proactive only

	fn        sched.FuncID
	scratch   fabric.GPtr
	doneBase  fabric.GPtr
	cells     uint64
	taskSeq   atomic.Uint64
	started   []atomic.Uint64 // per node: tasks that began executing there
	phaseHist atomic.Pointer[metrics.Histogram]

	drained  chan struct{}
	rejoined chan struct{}

	mu      sync.Mutex // guards members/agents across rejoins
	members []*membership.Member
	agents  []*health.Agent
	srcs    []*health.NodeSource
}

func newHealthRack(cfg HealthConfig, proactive bool) *healthRack {
	r := &healthRack{
		drained:  make(chan struct{}, 4),
		rejoined: make(chan struct{}, 4),
	}
	r.f = fabric.New(fabric.Config{
		GlobalSize: 64 << 20,
		Nodes:      cfg.Nodes,
		// Accounting-only: the injected hops show up in every task's
		// recorded virtual cost without busy-waiting the host (which
		// would starve the heartbeat tickers on small CI machines).
		Latency: fabric.DefaultLatency(),
	})
	r.s = sched.New(r.f, sched.Config{
		TableCap:    128,
		Policy:      sched.PolicyLocality,
		ProbeRounds: 40,
		ReclaimTick: 500 * time.Microsecond,
		IdleTick:    200 * time.Microsecond,
		StealGrace:  500 * time.Microsecond,
	})
	r.scratch = r.f.Reserve(fabric.LineSize, fabric.LineSize)
	// Every task the experiment will ever submit (phases, serving probes,
	// the crash burst) gets its own DoneCell for the exactly-once audit.
	r.cells = uint64((len(cfg.RampHops)+2)*cfg.TasksPerLevel + 2*servesProbeCap + 16*cfg.Clients + 64)
	r.doneBase = r.f.Reserve(r.cells*8, fabric.LineSize)
	r.started = make([]atomic.Uint64, cfg.Nodes)
	work := cfg.AtomicsPerTask
	r.fn = r.s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		r.started[n.ID()].Add(1)
		if arg0 == 1 {
			// Crash-burst linger: stay mid-task long enough for the crash
			// to land while this node holds the lease.
			time.Sleep(200 * time.Microsecond)
		}
		v0 := n.VirtualNS()
		for i := 0; i < work; i++ {
			n.AtomicLoad64(r.scratch) // always reaches home: pays the full hop cost
		}
		if h := r.phaseHist.Load(); h != nil {
			h.Record(float64(n.VirtualNS() - v0))
		}
	})
	r.s.Start()
	r.store = redis.NewRackStore(r.f, redis.RackStoreConfig{
		ArenaBytes: 4 << 20,
		MaxViews:   64,
	})
	if err := r.store.Attach(r.f.Node(0)).Set("warm", []byte("committed"), 0); err != nil {
		panic(err)
	}
	r.tb = membership.New(r.f, membership.Config{
		HeartbeatTick: 100 * time.Microsecond,
		PhiSuspect:    3,
		PhiDead:       8,
		DeadStrikes:   3,
	})
	r.members = make([]*membership.Member, cfg.Nodes)
	r.agents = make([]*health.Agent, cfg.Nodes)
	r.srcs = make([]*health.NodeSource, cfg.Nodes)
	if proactive {
		r.layer = health.New(r.tb, health.Config{
			Tick:         100 * time.Microsecond,
			EnterStrikes: 2,
			ExitStrikes:  4,
		})
	}
	for id := 0; id < cfg.Nodes; id++ {
		if err := r.rejoinNode(id); err != nil {
			panic(err)
		}
	}
	r.s.SetLiveness(r.tb.Alive)
	if proactive {
		r.ctl = health.NewController(r.members[0], health.ControllerConfig{
			Sched:   r.s,
			Store:   r.store,
			Rejoin:  r.ctlRejoin,
			OnStage: r.onStage,
			From:    r.f.Node(0),
		})
	} else {
		// The baseline's only remediator: the classic phi-accrual Dead
		// sweep (it never fires for a gray node — that is the point).
		sweep := health.NewDeadSweep(func() health.SweepGates {
			return health.SweepGates{Sched: r.s, Store: r.store}
		})
		n0 := r.f.Node(0)
		r.members[0].Subscribe(func(ev membership.Event) { sweep.Dead(n0, ev) })
	}
	return r
}

// rejoinNode (re)joins node id into membership and, in proactive mode,
// replaces its health agent alongside — an agent publishes records
// stamped with its member's generation, so the two always rejoin
// together.
func (r *healthRack) rejoinNode(id int) error {
	n := r.f.Node(id)
	if n.Crashed() {
		return fmt.Errorf("node %d is crashed", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.agents[id]; a != nil {
		a.Stop()
	}
	if m := r.members[id]; m != nil {
		m.Stop()
	}
	m, err := r.tb.Join(n)
	if err != nil {
		return err
	}
	if err := m.Activate(); err != nil {
		return err
	}
	m.Start()
	r.members[id] = m
	if r.layer != nil {
		if r.srcs[id] == nil {
			r.srcs[id] = health.NewNodeSource(n, r.s)
		}
		a := r.layer.Join(m, r.srcs[id])
		a.Start()
		r.agents[id] = a
	}
	return nil
}

func (r *healthRack) generation(id int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[id].Generation()
}

// ctlRejoin is the controller's recovery callback; it runs inline on the
// controller's event goroutine (node 0's health agent), so node 0 never
// self-rejoins.
func (r *healthRack) ctlRejoin(node int, gen uint64) error {
	if node == 0 {
		return fmt.Errorf("node 0 hosts the controller and does not self-rejoin")
	}
	return r.rejoinNode(node)
}

func (r *healthRack) onStage(st health.Stage, node int, gen uint64) {
	switch st {
	case health.StageDrained:
		select {
		case r.drained <- struct{}{}:
		default:
		}
	case health.StageRejoined:
		select {
		case r.rejoined <- struct{}{}:
		default:
		}
	}
}

// submit queues one task through node 0 and returns its handle. Tasks
// cycle their preferred node over the whole rack — the victim included —
// so placement policy, not the submitter, decides who pays for the ramp.
func (r *healthRack) submit(cfg HealthConfig, arg0 uint64) sched.Handle {
	idx := r.taskSeq.Add(1) - 1
	if idx >= r.cells {
		panic("health experiment overran its DoneCell arena")
	}
	return r.s.Submit(r.f.Node(0), sched.Task{
		Fn:        r.fn,
		Arg0:      arg0,
		Arg1:      idx,
		Preferred: int(idx % uint64(cfg.Nodes)),
		DoneCell:  r.doneBase.Add(idx * 8),
	})
}

// runPhase runs count closed-loop tasks across cfg.Clients submitters;
// each task records its own fabric cost into hist from whichever node
// executed it.
func (r *healthRack) runPhase(cfg HealthConfig, count int, hist *metrics.Histogram) {
	r.phaseHist.Store(hist)
	defer r.phaseHist.Store(nil)
	per := count / cfg.Clients
	n0 := r.f.Node(0)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h := r.submit(cfg, 0)
				r.s.Wait(n0, h)
			}
		}()
	}
	wg.Wait()
}

// servesProbeCap bounds waitServes' probe submissions so the DoneCell
// arena stays sized even if the gate never reopens.
const servesProbeCap = 2000

// waitServes proves node id is pulling rack work again: it submits probe
// tasks preferred there until one actually begins executing on it.
func (r *healthRack) waitServes(id int) (time.Duration, bool) {
	start := time.Now()
	s0 := r.started[id].Load()
	n0 := r.f.Node(0)
	for i := 0; i < servesProbeCap; i++ {
		if time.Since(start) > memWaitTimeout {
			return 0, false
		}
		idx := r.taskSeq.Add(1) - 1
		if idx >= r.cells {
			return 0, false
		}
		h := r.s.Submit(n0, sched.Task{
			Fn:        r.fn,
			Arg1:      idx,
			Preferred: id,
			DoneCell:  r.doneBase.Add(idx * 8),
		})
		r.s.Wait(n0, h)
		if r.started[id].Load() > s0 {
			return time.Since(start), true
		}
	}
	return 0, false
}

// crashRound crashes the victim mid-task under load and returns
// (crash->Dead, crash->burst complete, post-restart zombie leak, ok).
// The controller's death sweep owns remediation; afterwards the node is
// restarted, rebooted in sched, and rejoined under a fresh generation.
func (r *healthRack) crashRound(cfg HealthConfig, victim int) (detect, complete time.Duration, leak, ok bool) {
	deadline := time.Now().Add(memWaitTimeout)
	for !r.tb.Alive(victim) {
		if time.Now().After(deadline) {
			return 0, 0, false, false
		}
		time.Sleep(50 * time.Microsecond)
	}
	deadGen := r.generation(victim)

	s0 := r.started[victim].Load()
	hs := make([]sched.Handle, 0, 16*cfg.Clients)
	for i := 0; i < 16*cfg.Clients; i++ {
		hs = append(hs, r.submit(cfg, 1)) // lingering tasks: the crash lands mid-task
	}
	deadline = time.Now().Add(memWaitTimeout)
	for r.started[victim].Load() == s0 {
		if time.Now().After(deadline) {
			return 0, 0, false, false
		}
		time.Sleep(10 * time.Microsecond)
	}
	crashAt := time.Now()
	r.f.Node(victim).Crash()

	deadline = time.Now().Add(memWaitTimeout)
	for r.tb.Alive(victim) {
		if time.Now().After(deadline) {
			return 0, 0, false, false
		}
		time.Sleep(20 * time.Microsecond)
	}
	detect = time.Since(crashAt)
	n0 := r.f.Node(0)
	for _, h := range hs {
		r.s.Wait(n0, h)
	}
	complete = time.Since(crashAt)

	r.f.Node(victim).Restart()
	r.s.RebootNode(victim)
	if err := r.rejoinNode(victim); err != nil {
		return 0, 0, false, false
	}
	// The controller's death sweep runs on its own event path (it needs
	// its observer's Dead strikes, not just the table's verdict), so the
	// fence may rise an instant after the burst completes: poll. A leak
	// is a dead-generation write still going through once the sweep has
	// had memWaitTimeout to fire.
	view := r.store.AttachGen(r.f.Node(victim), deadGen)
	deadline = time.Now().Add(memWaitTimeout)
	leak = true
	for time.Now().Before(deadline) {
		if errors.Is(view.Set("warm", []byte("necro"), 0), redis.ErrFenced) {
			leak = false
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	return detect, complete, leak, true
}

// checkExactlyOnce audits the mode's entire task history after all
// phases: the scheduler ledger balances and every DoneCell holds exactly
// 1 despite the drain's re-placement and the crash round's re-dispatch.
func (r *healthRack) checkExactlyOnce(res *Result) bool {
	n0 := r.f.Node(0)
	r.s.Drain(n0)
	st := r.s.StatsFrom(n0)
	total := r.taskSeq.Load()
	bad := 0
	for i := uint64(0); i < total; i++ {
		if n0.AtomicLoad64(r.doneBase+fabric.GPtr(i*8)) != 1 {
			bad++
		}
	}
	mode := "liveness-only baseline"
	if r.layer != nil {
		mode = "proactive"
	}
	res.Table.AddRow("invariant", mode, "tasks exactly-once",
		fmt.Sprintf("%d / %d (submitted %d, completed %d, queued %d)",
			total-uint64(bad), total,
			st.Submitted, st.Completed, st.Queued))
	return bad == 0 && st.Submitted == st.Completed && st.Queued == 0
}

func (r *healthRack) stop() {
	r.mu.Lock()
	agents, members := r.agents, r.members
	r.mu.Unlock()
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
	r.s.Stop()
}

// healthBench computes the experiment's machine-readable headline on a
// separate accounting-only fabric, so BENCH_health.json is bit-identical
// across runs, hosts, and -quick vs full sizes (wall numbers would churn
// the tracked artifact on every CI machine): the VIRTUAL per-op cost a
// task pays on a healthy link (p50, and the throughput it implies)
// versus at the worst ramp level (p99) — the latency cliff the drain
// removes from the tail.
func healthBench(cfg HealthConfig) *Bench {
	f := fabric.New(fabric.Config{
		GlobalSize: 1 << 20,
		Nodes:      2,
		Latency:    fabric.DefaultLatency(), // LatencyAccount: exact, no wall time
	})
	n := f.Node(1)
	g := f.Reserve(fabric.LineSize, fabric.LineSize)
	perOp := func(hops int) float64 {
		n.SetLinkDegradation(hops)
		const probes = 256
		before := n.Stats().VirtualNS
		for i := 0; i < probes; i++ {
			n.AtomicLoad64(g)
		}
		return float64(n.Stats().VirtualNS-before) / probes
	}
	base := perOp(0)
	worst := base
	for _, hops := range cfg.RampHops {
		if c := perOp(hops); c > worst {
			worst = c
		}
	}
	return &Bench{
		Name:      "health",
		OpsPerSec: 1e9 / base,
		P50NS:     base,
		P99NS:     worst,
	}
}
