package sched

import (
	"testing"
	"time"

	"flacos/internal/fabric"
)

// TestCrashRestartSameNodeNoResurrection is the regression test for the
// nastiest lease race: a node crashes mid-task, the reclaimer fences its
// attempts and re-dispatches them, and then the SAME node ID restarts
// while the old runner goroutines are still asleep. Those runners wake on
// a now-alive node, so their fabric stores succeed again — only attempt
// fencing stops them from completing a task someone else already re-ran.
// The test asserts no task completes twice, nothing is lost, and the
// restarted ID accepts fresh work.
func TestCrashRestartSameNodeNoResurrection(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40,
		ProbeRounds: 3, ReclaimTick: 100 * time.Microsecond, IdleTick: 100 * time.Microsecond,
		StealGrace: 50 * time.Millisecond,
	})
	const tasks = 24
	base := cells(f, tasks)
	started := f.Reserve(8*2, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(started.Add(uint64(n.ID())*8), 1)
		// Long enough that most of node 1's runners are still asleep when
		// the node is crashed, fenced, and restarted underneath them.
		time.Sleep(2 * time.Millisecond)
		n.Load64(fabric.GPtr(arg0))
	})
	ranOn := f.Reserve(8, 8)
	fn2 := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.AtomicStore64(fabric.GPtr(arg0), uint64(n.ID())+1)
	})
	s.Start()

	n0 := f.Node(0)
	for i := uint64(0); i < tasks; i++ {
		// Huge slack pins everything to the preferred node 1.
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(base), Preferred: 1, DoneCell: base.Add(i * 8)})
	}
	for n0.AtomicLoad64(started.Add(8)) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	f.Node(1).Crash()

	// Wait for the reclaimer to fence at least one dead attempt, then
	// bring the same node ID back while old runners still sleep.
	deadline := time.Now().Add(10 * time.Second)
	for s.StatsFrom(n0).Reclaimed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reclaimer never fenced the crashed node's attempts")
		}
		time.Sleep(100 * time.Microsecond)
	}
	f.Node(1).Restart()
	s.RebootNode(1)

	if !s.Drain(n0) {
		t.Fatal("Drain aborted after restart")
	}
	st := s.StatsFrom(n0)
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d across crash+restart", st.Completed, tasks)
	}
	if st.Queued != 0 {
		t.Fatalf("queued = %d after Drain", st.Queued)
	}
	for i := uint64(0); i < tasks; i++ {
		if c := n0.AtomicLoad64(base.Add(i * 8)); c != 1 {
			t.Fatalf("task %d completion cell = %d: a fenced runner resurrected", i, c)
		}
	}

	// The restarted ID is a first-class scheduling target again.
	h := s.Submit(n0, Task{Fn: fn2, Arg0: uint64(ranOn), Preferred: 1})
	if !s.Wait(n0, h) {
		t.Fatal("Wait aborted on post-restart task")
	}
	if got := n0.AtomicLoad64(ranOn); got != 2 {
		t.Fatalf("post-restart task ran on node %d, want 1 (the rebooted node)", got-1)
	}
}

// TestRebootReclaimsDeadIncarnationLeases: a node crashes mid-task and
// restarts before any keeper probe expires its lease (the probe window
// here is effectively infinite, and no membership sweep runs). The
// runner died with the crash, and the rebooted node's keeper would renew
// the orphaned lease forever, so RebootNode itself must reclaim it.
func TestRebootReclaimsDeadIncarnationLeases(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40, WorkersPerNode: 1,
		ProbeRounds: 1 << 30, ReclaimTick: 100 * time.Microsecond, IdleTick: 100 * time.Microsecond,
		StealGrace: time.Hour,
	})
	started := make(chan int, 4)
	release := make(chan struct{})
	exited := make(chan struct{}, 4)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		defer func() { exited <- struct{}{} }() // also on the crash panic
		started <- n.ID()
		<-release
		n.Load64(fabric.GPtr(arg0))
	})
	s.Start()

	n0 := f.Node(0)
	cell := cells(f, 1)
	h := s.Submit(n0, Task{Fn: fn, Arg0: uint64(cell), Preferred: 1, DoneCell: cell})
	if id := <-started; id != 1 {
		t.Fatalf("task started on node %d, want 1", id)
	}
	f.Node(1).Crash()
	close(release)
	<-exited // the runner touched the fabric and died with its node
	f.Node(1).Restart()
	s.RebootNode(1)

	waited := make(chan bool, 1)
	go func() { waited <- s.Wait(n0, h) }()
	select {
	case ok := <-waited:
		if !ok {
			t.Fatal("Wait aborted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("task orphaned by the crash never completed after RebootNode")
	}
	if c := n0.AtomicLoad64(cell); c != 1 {
		t.Fatalf("completion cell = %d, want 1", c)
	}
	if st := s.StatsFrom(n0); st.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", st.Reclaimed)
	}
}
