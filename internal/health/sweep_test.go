package health

import (
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
	"flacos/internal/membership"
)

// sweepCounter counts each gate the Dead sweep drives. With crashFirst
// set, the first ReclaimNode crashes its observer mid-sweep: the
// observer's next fabric op panics, exactly as a real sweep dies.
type sweepCounter struct {
	reclaims, evicts atomic.Int32
	crashFirst       atomic.Bool

	mu        sync.Mutex
	fenceGens []uint64
}

func (g *sweepCounter) ReclaimNode(from *fabric.Node, dead int) int {
	if g.crashFirst.CompareAndSwap(true, false) {
		from.Crash()
		from.AtomicLoad64(0)
	}
	g.reclaims.Add(1)
	return 0
}

func (g *sweepCounter) SetNodeServing(id int, serving bool) {}

func (g *sweepCounter) FenceNode(from *fabric.Node, nodeID int, gen uint64) int {
	g.mu.Lock()
	g.fenceGens = append(g.fenceGens, gen)
	g.mu.Unlock()
	return 0
}

func (g *sweepCounter) EvictNode(id int) int {
	g.evicts.Add(1)
	return 0
}

func (g *sweepCounter) fences() []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]uint64(nil), g.fenceGens...)
}

func newCountingSweep(g *sweepCounter) *DeadSweep {
	return NewDeadSweep(func() SweepGates {
		return SweepGates{Sched: g, Store: g, Serverless: []ServerlessGate{g}}
	})
}

func deadEv(node int, gen uint64) membership.Event {
	return membership.Event{Kind: membership.EvDead, Slot: node, Node: node, Generation: gen}
}

// TestDeadSweepCrashedObserverDoesNotSwallowDeath: the first observer
// crashes inside ReclaimNode. Its crash panic must still propagate (the
// agent dies), its claim must be released, a crashed observer must not
// claim the death again, and a live observer's delivery must then run
// the fence and the evict.
func TestDeadSweepCrashedObserverDoesNotSwallowDeath(t *testing.T) {
	f := testFabric(3)
	g := &sweepCounter{}
	g.crashFirst.Store(true)
	s := newCountingSweep(g)
	ev := deadEv(2, 1)
	n1 := f.Node(1)

	r := func() (r any) {
		defer func() { r = recover() }()
		s.Dead(n1, ev)
		return nil
	}()
	if !n1.IsCrashPanic(r) {
		t.Fatalf("sweep cut short by its observer's crash recovered %v, want the crash panic", r)
	}
	if s.Dead(n1, ev) {
		t.Fatal("a crashed observer ran the sweep")
	}
	if !s.Dead(f.Node(0), ev) {
		t.Fatal("the live observer's delivery did not run the sweep: the death was swallowed")
	}
	if got := g.fences(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("fences = %v, want exactly [1]", got)
	}
	if n := g.evicts.Load(); n != 1 {
		t.Fatalf("evicts = %d, want 1", n)
	}
	if s.Dead(f.Node(0), ev) {
		t.Fatal("a duplicate delivery re-ran the completed sweep")
	}
}

// TestDeadSweepConcurrentObserversRunOnce: every live member's agent
// delivers the same Dead at once; exactly one delivery runs the sweep
// and each gate fires exactly once.
func TestDeadSweepConcurrentObserversRunOnce(t *testing.T) {
	const observers = 8
	f := testFabric(4)
	g := &sweepCounter{}
	s := newCountingSweep(g)
	ev := deadEv(3, 2)

	var ran atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < observers; i++ {
		wg.Add(1)
		go func(n *fabric.Node) {
			defer wg.Done()
			<-start
			if s.Dead(n, ev) {
				ran.Add(1)
			}
		}(f.Node(i % 3))
	}
	close(start)
	wg.Wait()

	if ran.Load() != 1 {
		t.Fatalf("%d deliveries ran the sweep, want 1", ran.Load())
	}
	if g.reclaims.Load() != 1 || g.evicts.Load() != 1 || len(g.fences()) != 1 {
		t.Fatalf("reclaims=%d fences=%v evicts=%d, want each gate exactly once",
			g.reclaims.Load(), g.fences(), g.evicts.Load())
	}
}

// TestDeadSweepLaterGenerationSweepsAgain: a restarted node that dies
// again under a bumped generation is a new death; non-Dead events never
// sweep.
func TestDeadSweepLaterGenerationSweepsAgain(t *testing.T) {
	f := testFabric(2)
	g := &sweepCounter{}
	s := newCountingSweep(g)
	n0 := f.Node(0)

	if s.Dead(n0, membership.Event{Kind: membership.EvSuspect, Slot: 1, Node: 1, Generation: 1}) {
		t.Fatal("a Suspect event ran the sweep")
	}
	for _, step := range []struct {
		gen  uint64
		want bool
	}{{1, true}, {1, false}, {2, true}, {2, false}} {
		if got := s.Dead(n0, deadEv(1, step.gen)); got != step.want {
			t.Fatalf("Dead(gen %d) = %v, want %v", step.gen, got, step.want)
		}
	}
	if got := g.fences(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fences = %v, want [1 2]", got)
	}
	if g.reclaims.Load() != 2 || g.evicts.Load() != 2 {
		t.Fatalf("reclaims=%d evicts=%d, want 2 each", g.reclaims.Load(), g.evicts.Load())
	}
}
