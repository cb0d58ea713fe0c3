package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/health"
	"flacos/internal/membership"
	"flacos/internal/metrics"
	"flacos/internal/redis"
	"flacos/internal/sched"
)

// MembershipConfig parameterizes the coordinated failure-detection
// experiment.
type MembershipConfig struct {
	// Nodes sizes the rack. The last node is held out of the boot
	// population and hot-plugs into a free slot under load.
	Nodes int
	// Rounds is how many crash -> detect -> recover cycles each mode
	// runs (victims cycle over nodes 1..Nodes-1; node 0 never dies).
	Rounds int
	// TasksPerRound is the background scheduler burst submitted right
	// before each crash, preferred across every node including the
	// victim — the work whose recovery is being timed.
	TasksPerRound int
}

// DefaultMembership matches the acceptance setup: a 4-node rack, eight
// crash cycles per mode.
func DefaultMembership() MembershipConfig {
	return MembershipConfig{Nodes: 4, Rounds: 8, TasksPerRound: 96}
}

// Membership measures the coordinated failure-detection layer
// (internal/membership) against the old per-subsystem recovery paths.
//
// Latencies here are WALL nanoseconds, not virtual: both the membership
// detector and sched's lease keeper are ticker-driven, so wall time is
// the honest clock for them (virtual time does not advance while a
// failure sits undetected).
//
//   - Membership mode: heartbeats + phi detection; ONE Dead event
//     sweeps the dead node's leases and generation-fences its store
//     views. Measured: crash->Dead detection, crash->sweep completion,
//     and crash->burst completion; plus the hot-plug join->serving
//     time for the held-out node, and a zombie-write probe after every
//     restart (a pre-death view must observe ErrFenced forever).
//   - Baseline mode: no membership layer. The same burst's recovery
//     waits on sched's conservative lease-expiry keeper
//     (ProbeRounds x ReclaimTick = 20ms), the old per-subsystem path;
//     the store has no fencing at all in this mode.
//
// The returned bool reports failure: a zombie write leaking through a
// fence, a detection/recovery timeout, a DoneCell not exactly 1, or
// membership recovery not beating the lease-expiry baseline by at
// least 1.2x.
func Membership(cfg MembershipConfig) (*Result, bool) {
	res := &Result{
		Name:   "Membership: coordinated failure detection vs per-subsystem recovery",
		Table:  metrics.NewTable("phase", "mode", "metric", "value"),
		Ratios: map[string]float64{},
	}
	var gates []string
	gatef := func(format string, args ...any) {
		gates = append(gates, fmt.Sprintf(format, args...))
	}

	mem := newMemRack(cfg, true)
	hotNS, ok := mem.hotPlug(cfg)
	if !ok {
		gatef("hot-plug resync read missing/corrupt committed state")
	}
	res.Table.AddRow("hot-plug", "membership", "join -> serving under load (wall)", ns(hotNS))

	detect := metrics.NewHistogram()
	sweep := metrics.NewHistogram()
	complete := metrics.NewHistogram()
	leaks := 0
	memStart := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		victim := 1 + r%(cfg.Nodes-1)
		d, s, c, leak, ok := mem.crashRound(cfg, victim)
		if !ok {
			gatef("membership round %d (victim %d): detection/recovery timed out", r, victim)
			continue
		}
		detect.Record(float64(d.Nanoseconds()))
		sweep.Record(float64(s.Nanoseconds()))
		complete.Record(float64(c.Nanoseconds()))
		if leak {
			leaks++
		}
	}
	memElapsed := time.Since(memStart)
	if !mem.checkExactlyOnce(res) {
		gatef("membership mode broke exactly-once completion")
	}
	mem.stop()

	base := newMemRack(cfg, false)
	baseDetect := metrics.NewHistogram()
	baseComplete := metrics.NewHistogram()
	for r := 0; r < cfg.Rounds; r++ {
		victim := 1 + r%(cfg.Nodes-1)
		d, c, ok := base.baselineRound(cfg, victim)
		if !ok {
			gatef("baseline round %d (victim %d): lease reclaim timed out", r, victim)
			continue
		}
		baseDetect.Record(float64(d.Nanoseconds()))
		baseComplete.Record(float64(c.Nanoseconds()))
	}
	if !base.checkExactlyOnce(res) {
		gatef("baseline mode broke exactly-once completion")
	}
	base.stop()

	for _, row := range []struct {
		phase, mode, metric string
		h                   *metrics.Histogram
	}{
		{"detect", "membership", "crash -> Dead (wall) p50/p99", detect},
		{"detect", "lease-expiry baseline", "crash -> first reclaim (wall) p50/p99", baseDetect},
		{"recover", "membership", "crash -> sweep done (wall) p50/p99", sweep},
		{"recover", "membership", "crash -> burst complete (wall) p50/p99", complete},
		{"recover", "lease-expiry baseline", "crash -> burst complete (wall) p50/p99", baseComplete},
	} {
		s := row.h.Summarize()
		res.Table.AddRow(row.phase, row.mode, row.metric,
			fmt.Sprintf("%s / %s", ns(s.P50), ns(s.P99)))
	}
	res.Table.AddRow("fencing", "membership", "zombie write leaks",
		fmt.Sprintf("%d / %d rounds", leaks, cfg.Rounds))
	res.Table.AddRow("detect", "membership", "live nodes declared Dead (rejoined)",
		fmt.Sprintf("%d / %d rounds", mem.falseDead, cfg.Rounds))
	if mem.falseDead > 0 {
		// Not a gate: heartbeats starve when the host is overloaded, which
		// is host timing, not the detector's logic. Flagged so a detector
		// that kills healthy nodes never passes silently.
		res.Table.AddRow("FLAG", "detector false positive",
			fmt.Sprintf("%d live node(s) declared Dead", mem.falseDead), "rejoined before the next crash")
	}
	if leaks > 0 {
		gatef("%d zombie write(s) leaked through a generation fence", leaks)
	}

	detectRatio, recoverRatio := 0.0, 0.0
	if m := detect.Mean(); m > 0 {
		detectRatio = baseDetect.Mean() / m
	}
	if m := complete.Mean(); m > 0 {
		recoverRatio = baseComplete.Mean() / m
	}
	res.Ratios["baseline/membership detection"] = detectRatio
	res.Ratios["baseline/membership recovery"] = recoverRatio
	if recoverRatio < 1.2 {
		gatef("membership recovery %.2fx the baseline, want >= 1.2x", recoverRatio)
	}
	for _, g := range gates {
		res.Table.AddRow("GATE", "FAIL", g, "")
	}

	tasks := float64(cfg.Rounds * cfg.TasksPerRound)
	opsPerSec := 0.0
	if memElapsed > 0 {
		opsPerSec = tasks / memElapsed.Seconds()
	}
	ds := detect.Summarize()
	res.Bench = &Bench{
		Name:      "membership",
		OpsPerSec: opsPerSec,
		P50NS:     ds.P50,
		P99NS:     ds.P99,
	}
	return res, len(gates) > 0
}

// memWaitTimeout bounds every detection/recovery poll: crossing it means
// the path under test is broken, not slow.
const memWaitTimeout = 10 * time.Second

// memRack is one mode's rack: fabric + tuned scheduler + shared store,
// plus the membership layer when the mode uses it.
type memRack struct {
	f     *fabric.Fabric
	s     *sched.Scheduler
	store *redis.RackStore

	tb      *membership.Table
	members []*membership.Member

	fn       sched.FuncID
	doneBase fabric.GPtr
	taskSeq  uint64
	started  []atomic.Uint64 // per node: tasks that began executing there

	// falseDead counts live nodes crashRound found declared Dead and
	// rejoined: detector false positives.
	falseDead int

	sweep     *health.DeadSweep
	recovered chan time.Time
}

func newMemRack(cfg MembershipConfig, withMembership bool) *memRack {
	r := &memRack{recovered: make(chan time.Time, 64)}
	r.f = fabric.New(fabric.Config{GlobalSize: 128 << 20, Nodes: cfg.Nodes})
	// ProbeRounds x ReclaimTick = 20ms: the conservative per-subsystem
	// lease-expiry timeout the membership layer replaces as the TIMELY
	// path (it stays on as the backstop in both modes).
	r.s = sched.New(r.f, sched.Config{
		TableCap:    256,
		Policy:      sched.PolicyLocality,
		ProbeRounds: 40,
		ReclaimTick: 500 * time.Microsecond,
		IdleTick:    200 * time.Microsecond,
		StealGrace:  500 * time.Microsecond,
	})
	cells := uint64(cfg.Rounds*cfg.TasksPerRound + cfg.TasksPerRound + 64)
	r.doneBase = r.f.Reserve(cells*8, fabric.LineSize)
	r.started = make([]atomic.Uint64, cfg.Nodes)
	r.fn = r.s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		// Announce the start (rounds crash a node only once it is
		// observably mid-task), linger off-fabric long enough for the
		// crash to land, then touch the fabric so runners on the crashed
		// node die with it.
		r.started[n.ID()].Add(1)
		time.Sleep(200 * time.Microsecond)
		n.Load64(r.doneBase + fabric.GPtr(arg1*8))
	})
	r.s.Start()
	r.store = redis.NewRackStore(r.f, redis.RackStoreConfig{
		ArenaBytes: 8 << 20,
		MaxViews:   8*cfg.Rounds + 32,
	})
	if err := r.store.Attach(r.f.Node(0)).Set("warm", []byte("committed"), 0); err != nil {
		panic(err)
	}
	if !withMembership {
		return r
	}
	r.sweep = health.NewDeadSweep(func() health.SweepGates {
		return health.SweepGates{Sched: r.s, Store: r.store}
	})
	r.tb = membership.New(r.f, membership.Config{
		HeartbeatTick: 100 * time.Microsecond,
		PhiSuspect:    3,
		PhiDead:       6,
		DeadStrikes:   2,
	})
	r.members = make([]*membership.Member, cfg.Nodes)
	hot := cfg.Nodes - 1
	for id := 0; id < hot; id++ {
		r.join(id)
	}
	r.s.SetNodeServing(hot, false) // held out until hotPlug
	r.s.SetLiveness(r.tb.Alive)
	return r
}

// join (re)joins node id, activates it, and starts its loops; node 0's
// member carries the Dead subscription that performs the rack sweep.
func (r *memRack) join(id int) {
	if old := r.members[id]; old != nil {
		old.Stop()
	}
	m, err := r.tb.Join(r.f.Node(id))
	if err != nil {
		panic(err)
	}
	if err := m.Activate(); err != nil {
		panic(err)
	}
	if id == 0 {
		m.Subscribe(r.onDead)
	}
	m.Start()
	r.members[id] = m
}

// onDead runs the rack's Dead sweep from node 0 (lease reclaim and
// fence, once per (slot, generation)), then stamps the wall time the
// rack finished recovering.
func (r *memRack) onDead(ev membership.Event) {
	if !r.sweep.Dead(r.f.Node(0), ev) {
		return
	}
	select {
	case r.recovered <- time.Now():
	default:
	}
}

// burst submits count background tasks from node 0, preferred round-
// robin across all nodes (the victim included).
func (r *memRack) burst(count, nodes int) []sched.Handle {
	n0 := r.f.Node(0)
	hs := make([]sched.Handle, 0, count)
	for i := 0; i < count; i++ {
		idx := r.taskSeq
		r.taskSeq++
		hs = append(hs, r.s.Submit(n0, sched.Task{
			Fn:        r.fn,
			Arg1:      idx,
			Preferred: int(idx) % nodes,
			DoneCell:  r.doneBase + fabric.GPtr(idx*8),
		}))
	}
	return hs
}

func (r *memRack) waitHandles(hs []sched.Handle) {
	n0 := r.f.Node(0)
	for _, h := range hs {
		r.s.Wait(n0, h)
	}
}

// hotPlug joins the held-out last node under background load and
// returns the wall time from Join to its first served task.
func (r *memRack) hotPlug(cfg MembershipConfig) (float64, bool) {
	hot := cfg.Nodes - 1
	bg := r.burst(cfg.TasksPerRound, hot) // load on the existing population
	start := time.Now()
	m, err := r.tb.Join(r.f.Node(hot))
	if err != nil {
		panic(err)
	}
	// Resync while Joining: the shared store must serve committed state
	// to the joiner before it activates.
	if v, ok := r.store.Attach(r.f.Node(hot)).Get("warm"); !ok || string(v) != "committed" {
		return 0, false
	}
	if err := m.Activate(); err != nil {
		panic(err)
	}
	m.Start()
	r.members[hot] = m
	r.s.SetNodeServing(hot, true)
	// A burst preferred ONLY at the joiner closes the measurement: its
	// completion proves the new node is claiming and serving work.
	probe := make([]sched.Handle, 0, 4)
	n0 := r.f.Node(0)
	for i := 0; i < 4; i++ {
		idx := r.taskSeq
		r.taskSeq++
		probe = append(probe, r.s.Submit(n0, sched.Task{
			Fn:        r.fn,
			Arg1:      idx,
			Preferred: hot,
			DoneCell:  r.doneBase + fabric.GPtr(idx*8),
		}))
	}
	r.waitHandles(probe)
	elapsed := float64(time.Since(start).Nanoseconds())
	r.waitHandles(bg)
	return elapsed, true
}

// crashRound runs one membership-mode cycle against victim and returns
// (crash->Dead, crash->sweep, crash->burst complete, zombieLeak, ok).
func (r *memRack) crashRound(cfg MembershipConfig, victim int) (detect, sweep, complete time.Duration, leak, ok bool) {
	// Crashing a node the detector already counts dead would measure
	// nothing, so first bring every live node back to Alive. Phi
	// detection on a loaded host can declare a live node Dead when its
	// heartbeats starve; that verdict is final for its generation, so
	// the repair is the rejoin a restarted node performs. Each such
	// rejoin is a false positive of the detector and is counted.
	deadline := time.Now().Add(memWaitTimeout)
	for {
		converged := true
		for id, m := range r.members {
			if m == nil || r.tb.Alive(id) {
				continue
			}
			converged = false
			if !r.f.Node(id).Crashed() {
				r.falseDead++
				r.join(id)
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, 0, false, false
		}
		time.Sleep(50 * time.Microsecond)
	}
	for { // stale recovery stamps from earlier rounds
		select {
		case <-r.recovered:
			continue
		default:
		}
		break
	}
	gen := r.members[victim].Generation()

	s0 := r.started[victim].Load()
	hs := r.burst(cfg.TasksPerRound, cfg.Nodes)
	if !r.waitStarted(victim, s0) {
		return 0, 0, 0, false, false
	}
	crashAt := time.Now()
	r.f.Node(victim).Crash()

	deadline = time.Now().Add(memWaitTimeout)
	for r.tb.Alive(victim) {
		if time.Now().After(deadline) {
			return 0, 0, 0, false, false
		}
		time.Sleep(20 * time.Microsecond)
	}
	detect = time.Since(crashAt)
	select {
	case ts := <-r.recovered:
		sweep = ts.Sub(crashAt)
	case <-time.After(memWaitTimeout):
		return 0, 0, 0, false, false
	}
	r.waitHandles(hs)
	complete = time.Since(crashAt)

	// Hot-plug the victim back: restart the fabric node, respawn its
	// runners, rejoin with a bumped generation — then probe the fence. A
	// view carrying the dead generation must stay write-dead forever,
	// even though the node underneath it is back.
	r.f.Node(victim).Restart()
	r.s.RebootNode(victim)
	r.join(victim)
	zombie := r.store.AttachGen(r.f.Node(victim), gen)
	leak = !errors.Is(zombie.Set("warm", []byte("necro"), 0), redis.ErrFenced)
	return detect, sweep, complete, leak, true
}

// baselineRound is the per-subsystem path: no membership layer, so
// "detection" is sched's lease-expiry keeper noticing on its own
// (ProbeRounds x ReclaimTick later), and the store is never fenced.
func (r *memRack) baselineRound(cfg MembershipConfig, victim int) (detect, complete time.Duration, ok bool) {
	n0 := r.f.Node(0)
	before := r.s.StatsFrom(n0).Reclaimed

	s0 := r.started[victim].Load()
	hs := r.burst(cfg.TasksPerRound, cfg.Nodes)
	if !r.waitStarted(victim, s0) {
		return 0, 0, false
	}
	crashAt := time.Now()
	r.f.Node(victim).Crash()

	deadline := time.Now().Add(memWaitTimeout)
	for r.s.StatsFrom(n0).Reclaimed == before {
		if time.Now().After(deadline) {
			return 0, 0, false
		}
		time.Sleep(50 * time.Microsecond)
	}
	detect = time.Since(crashAt)
	r.waitHandles(hs)
	complete = time.Since(crashAt)

	r.f.Node(victim).Restart()
	r.s.RebootNode(victim)
	return detect, complete, true
}

// waitStarted blocks until node id has begun executing a task beyond
// count s0 — the guarantee that a crash right now lands mid-task, so the
// victim holds a lease the recovery path under test must reclaim.
func (r *memRack) waitStarted(id int, s0 uint64) bool {
	deadline := time.Now().Add(memWaitTimeout)
	for r.started[id].Load() == s0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Microsecond)
	}
	return true
}

// checkExactlyOnce audits the mode's entire task history after all
// rounds: the scheduler ledger balances and every DoneCell holds exactly
// 1 despite crashes mid-task and reclaim re-dispatch.
func (r *memRack) checkExactlyOnce(res *Result) bool {
	n0 := r.f.Node(0)
	r.s.Drain(n0)
	st := r.s.StatsFrom(n0)
	bad := 0
	for i := uint64(0); i < r.taskSeq; i++ {
		if n0.AtomicLoad64(r.doneBase+fabric.GPtr(i*8)) != 1 {
			bad++
		}
	}
	mode := "lease-expiry baseline"
	if r.tb != nil {
		mode = "membership"
	}
	res.Table.AddRow("invariant", mode, "tasks exactly-once",
		fmt.Sprintf("%d / %d (submitted %d, completed %d, queued %d)",
			r.taskSeq-uint64(bad), r.taskSeq,
			st.Submitted, st.Completed, st.Queued))
	return bad == 0 && st.Submitted == st.Completed && st.Queued == 0
}

func (r *memRack) stop() {
	for _, m := range r.members {
		if m != nil {
			m.Stop()
		}
	}
	r.s.Stop()
}
