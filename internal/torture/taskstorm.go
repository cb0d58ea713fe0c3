package torture

import (
	"time"

	"flacos/internal/fabric"
	"flacos/internal/sched"
)

// taskStorm is the scheduler half the membership and health workloads
// embed: stormSubmitters clients on node 0 storm the scheduler with tasks
// preferred onto every node (dead, draining, joining, the lot), and the
// checker demands exactly-once completion however the rack's recovery
// re-dispatched them.
type taskStorm struct {
	s        *sched.Scheduler
	fn       sched.FuncID
	doneBase fabric.GPtr
	execBase fabric.GPtr
	tasks    int

	// submitRng is the per-workload rng stream salt: submitter i draws
	// from stream submitRng+i, so seeded runs replay identically.
	submitRng uint64
}

const stormSubmitters = 2

// boot reserves the per-task cells and starts the scheduler. The
// keeper's lease-expiry backstop is deliberately conservative
// (ProbeRounds*ReclaimTick = 20ms): timely crash recovery comes from the
// Dead sweep, and the schedule driver's 25ms stall detector keeps a
// broken recovery path from hiding behind it.
func (t *taskStorm) boot(env *Env) {
	f := env.Fab
	t.tasks = stormSubmitters * env.Cfg.OpsPerClient
	t.doneBase = f.Reserve(uint64(t.tasks)*8, fabric.LineSize)
	t.execBase = f.Reserve(uint64(t.tasks)*8, fabric.LineSize)
	t.s = sched.New(f, sched.Config{
		TableCap:    128,
		Policy:      sched.PolicyLocality,
		ProbeRounds: 50,
		ReclaimTick: 400 * time.Microsecond,
		IdleTick:    200 * time.Microsecond,
		StealGrace:  500 * time.Microsecond,
		HistCap:     1024,
	})
	t.s.SetTrace(env.Trace)
	t.fn = t.s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(t.execBase+fabric.GPtr(arg1*8), 1)
		// Linger off-fabric so a crash can land mid-task, then touch the
		// fabric so runners on a crashed node actually die.
		time.Sleep(20 * time.Microsecond)
		n.Load64(t.doneBase + fabric.GPtr(arg1*8))
	})
	t.s.Start()
}

// submitter submits its share of the tasks from node 0 (never crashed),
// then waits for every one of them.
func (t *taskStorm) submitter(env *Env, sub int) {
	n0 := env.Fab.Node(0)
	rng := env.Rand(t.submitRng + uint64(sub))
	handles := make([]sched.Handle, 0, env.Cfg.OpsPerClient)
	for i := 0; i < env.Cfg.OpsPerClient; i++ {
		idx := sub*env.Cfg.OpsPerClient + i
		h := t.s.Submit(n0, sched.Task{
			Fn:        t.fn,
			Arg1:      uint64(idx),
			Preferred: rng.Intn(env.Cfg.Nodes),
			DoneCell:  t.doneBase + fabric.GPtr(idx*8),
		})
		handles = append(handles, h)
		env.OpDone()
	}
	for _, h := range handles {
		t.s.Wait(n0, h)
	}
}

// checkTasks drains the scheduler and checks every task completed
// exactly once. It reports false if the scheduler stopped first.
func (t *taskStorm) checkTasks(env *Env) bool {
	n0 := env.Fab.Node(0)
	if !t.s.Drain(n0) {
		env.Violatef(-1, "scheduler stopped before draining")
		return false
	}
	st := t.s.StatsFrom(n0)
	if st.Submitted != uint64(t.tasks) || st.Completed != uint64(t.tasks) {
		env.Violatef(-1, "lost tasks: submitted=%d completed=%d want %d", st.Submitted, st.Completed, t.tasks)
	}
	if st.Queued != 0 {
		env.Violatef(-1, "stranded tasks: queued=%d after drain", st.Queued)
	}
	for idx := 0; idx < t.tasks; idx++ {
		if done := n0.AtomicLoad64(t.doneBase + fabric.GPtr(idx*8)); done != 1 {
			env.Violatef(-1, "task %d: DoneCell=%d, want exactly 1", idx, done)
		}
		if exec := n0.AtomicLoad64(t.execBase + fabric.GPtr(idx*8)); exec == 0 {
			env.Violatef(-1, "task %d: never executed", idx)
		}
	}
	return true
}
