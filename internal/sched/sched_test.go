package sched

import (
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/memsys"
)

func testFabric(nodes int) *fabric.Fabric {
	return fabric.New(fabric.Config{GlobalSize: 64 << 20, Nodes: nodes, CacheCapacityLines: -1})
}

func testSched(t *testing.T, f *fabric.Fabric, cfg Config) *Scheduler {
	t.Helper()
	s := New(f, cfg)
	t.Cleanup(s.Stop)
	return s
}

// cells reserves count completion cells and returns their base.
func cells(f *fabric.Fabric, count uint64) fabric.GPtr {
	return f.Reserve(count*8, fabric.LineSize)
}

func TestSubmitCompletesEverywhere(t *testing.T) {
	f := testFabric(3)
	s := testSched(t, f, Config{})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(arg0), arg1)
	})
	s.Start()

	sum := f.Reserve(8, 8)
	base := cells(f, 64)
	n0 := f.Node(0)
	var hs []Handle
	for i := uint64(0); i < 64; i++ {
		hs = append(hs, s.Submit(n0, Task{
			Fn: fn, Arg0: uint64(sum), Arg1: i,
			Preferred: int(i % 3), DoneCell: base.Add(i * 8),
		}))
	}
	for _, h := range hs {
		if !s.Wait(n0, h) {
			t.Fatal("Wait aborted")
		}
	}
	if got := n0.AtomicLoad64(sum); got != 64*63/2 {
		t.Fatalf("sum = %d, want %d", got, 64*63/2)
	}
	for i := uint64(0); i < 64; i++ {
		if c := n0.AtomicLoad64(base.Add(i * 8)); c != 1 {
			t.Fatalf("task %d completion cell = %d, want 1", i, c)
		}
	}
	st := s.StatsFrom(n0)
	if st.Submitted != 64 || st.Completed != 64 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalityPlacementRunsOnPreferredNode(t *testing.T) {
	f := testFabric(3)
	// A long steal grace makes the run deterministic: worker-goroutine
	// startup (hundreds of µs) must not let an idle node outrun the
	// preferred node's claim.
	s := testSched(t, f, Config{Policy: PolicyLocality, StealGrace: 100 * time.Millisecond})
	ranOn := f.Reserve(8*64, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.AtomicStore64(fabric.GPtr(arg0).Add(arg1*8), uint64(n.ID())+1)
	})
	s.Start()

	n0 := f.Node(0)
	for i := 0; i < 12; i++ {
		pref := i % 3
		h := s.Submit(n0, Task{Fn: fn, Arg0: uint64(ranOn), Arg1: uint64(i), Preferred: pref})
		s.Wait(n0, h)
		// An idle rack with zero load always honors the preference.
		if got := n0.AtomicLoad64(ranOn.Add(uint64(i) * 8)); got != uint64(pref)+1 {
			t.Fatalf("task %d ran on node %d, want %d", i, got-1, pref)
		}
	}
}

func TestWorkStealingRebalances(t *testing.T) {
	f := testFabric(4)
	// Huge slack pins every task's target to node 0; the other three
	// nodes can only get work by stealing through the global table.
	s := testSched(t, f, Config{Policy: PolicyLocality, LocalitySlack: 1 << 40, IdleTick: 100 * time.Microsecond})
	perNode := f.Reserve(8*8, fabric.LineSize)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(arg0).Add(uint64(n.ID())*8), 1)
		time.Sleep(200 * time.Microsecond) // long enough that one node can't drain alone
	})
	s.Start()

	n0 := f.Node(0)
	const tasks = 96
	for i := 0; i < tasks; i++ {
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(perNode), Preferred: 0})
	}
	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	st := s.StatsFrom(n0)
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d", st.Completed, tasks)
	}
	if st.Stolen == 0 {
		t.Fatal("no task was stolen despite a single overloaded target")
	}
	others := uint64(0)
	for id := 1; id < 4; id++ {
		others += n0.AtomicLoad64(perNode.Add(uint64(id) * 8))
	}
	if others == 0 {
		t.Fatal("no task executed off the overloaded node")
	}
}

func TestCrashReclaimExactlyOnce(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{
		Policy: PolicyLocality, LocalitySlack: 1 << 40,
		ProbeRounds: 3, ReclaimTick: 100 * time.Microsecond, IdleTick: 100 * time.Microsecond,
	})
	const tasks = 24
	base := cells(f, tasks)
	started := f.Reserve(8*2, fabric.LineSize) // per-node start counters
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.Add64(fabric.GPtr(started).Add(uint64(n.ID())*8), 1)
		time.Sleep(300 * time.Microsecond)
		n.Load64(fabric.GPtr(arg0)) // touch the fabric so a dead CPU dies here
	})
	s.Start()

	n0 := f.Node(0)
	for i := uint64(0); i < tasks; i++ {
		// Everything targets node 1, which is about to die.
		s.Submit(n0, Task{Fn: fn, Arg0: uint64(base), Preferred: 1, DoneCell: base.Add(i * 8)})
	}
	// Wait until node 1 specifically has tasks in flight, then kill it:
	// the sleeping runners die mid-task and their leases must expire.
	for n0.AtomicLoad64(started.Add(8)) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	f.Node(1).Crash()

	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	st := s.StatsFrom(n0)
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d after crash", st.Completed, tasks)
	}
	if st.Reclaimed == 0 {
		t.Fatal("crash left in-flight tasks but nothing was reclaimed")
	}
	for i := uint64(0); i < tasks; i++ {
		if c := n0.AtomicLoad64(base.Add(i * 8)); c != 1 {
			t.Fatalf("task %d completed %d times, want exactly once", i, c)
		}
	}
	if s.RedispatchHist().Count() == 0 {
		t.Fatal("reclaimed tasks recorded no re-dispatch latency")
	}
}

func TestSubmitLocalStaysOnNode(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{})
	s.Start()
	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		s.SubmitLocal(1, func(n *fabric.Node) { done <- n.ID() })
	}
	s.Drain(f.Node(0))
	close(done)
	count := 0
	for id := range done {
		count++
		if id != 1 {
			t.Fatalf("local task ran on node %d, want 1", id)
		}
	}
	if count != 8 {
		t.Fatalf("ran %d local tasks, want 8", count)
	}
	if st := s.StatsFrom(f.Node(0)); st.LocalRun != 8 {
		t.Fatalf("LocalRun = %d", st.LocalRun)
	}
}

func TestPickNodeSkipsCrashedAndAddsLoad(t *testing.T) {
	f := testFabric(3)
	s := testSched(t, f, Config{})
	// Not started: the board is all zeros.
	if got := s.PickNode([]int{5, 0, 3}); got != 1 {
		t.Fatalf("PickNode = %d, want 1 (least dense)", got)
	}
	f.Node(1).Crash()
	if got := s.PickNode([]int{5, 0, 3}); got != 2 {
		t.Fatalf("PickNode = %d, want 2 (node 1 is down)", got)
	}
}

func TestSubmitToSpacePrefersAttachedNode(t *testing.T) {
	f := testFabric(3)
	s := testSched(t, f, Config{Policy: PolicyLocality, StealGrace: 100 * time.Millisecond})
	ranOn := f.Reserve(8, 8)
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		n.AtomicStore64(fabric.GPtr(arg0), uint64(n.ID())+1)
	})
	s.Start()

	arena := alloc.NewArena(f, 8<<20)
	frames := memsys.NewGlobalFrames(f, 128)
	sp := memsys.NewSpace(f, 1, frames, arena.NodeAllocator(f.Node(0), 0), 64)
	sp.Attach(f.Node(2), arena.NodeAllocator(f.Node(2), 0), nil, 16)

	n0 := f.Node(0)
	h := s.SubmitToSpace(n0, sp, Task{Fn: fn, Arg0: uint64(ranOn)})
	s.Wait(n0, h)
	if got := n0.AtomicLoad64(ranOn); got != 3 {
		t.Fatalf("space task ran on node %d, want 2 (the attached node)", got-1)
	}
}

func TestBoundedTableBlocksThenRecovers(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{TableCap: 8})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) {
		time.Sleep(50 * time.Microsecond)
	})
	s.Start()
	n0 := f.Node(0)
	for i := 0; i < 64; i++ { // 8x the table size: Submit must recycle slots
		s.Submit(n0, Task{Fn: fn})
	}
	if !s.Drain(n0) {
		t.Fatal("Drain aborted")
	}
	if st := s.StatsFrom(n0); st.Completed != 64 {
		t.Fatalf("completed %d of 64 through an 8-slot table", st.Completed)
	}
}

func TestParkedWorkersTracksIdleWorkers(t *testing.T) {
	f := testFabric(2)
	s := testSched(t, f, Config{WorkersPerNode: 2, IdleTick: time.Second})
	release := make(chan struct{})
	fn := s.Register(func(n *fabric.Node, arg0, arg1 uint64) { <-release })
	s.Start()
	waitParked := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.ParkedWorkers(1) != want {
			if time.Now().After(deadline) {
				t.Fatalf("ParkedWorkers(1) = %d, want %d", s.ParkedWorkers(1), want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitParked(2)
	n0 := f.Node(0)
	h := s.Submit(n0, Task{Fn: fn, Preferred: 1})
	waitParked(1) // one worker runs the blocked task, the other parks again
	close(release)
	if !s.Wait(n0, h) {
		t.Fatal("Wait aborted")
	}
	waitParked(2)
}
