package quiescence

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"flacos/internal/fabric"
)

func rack(t *testing.T, nodes int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{GlobalSize: 8 << 20, Nodes: nodes})
}

// bumpAlloc is a test allocator: bump allocation, and Free poisons the
// region at home so any reader still holding a reference sees garbage —
// which the VersionedCell tests detect as a torn read.
type bumpAlloc struct {
	mu   sync.Mutex
	f    *fabric.Fabric
	free []fabric.GPtr
	size uint64
}

func newBumpAlloc(f *fabric.Fabric, size uint64) *bumpAlloc {
	return &bumpAlloc{f: f, size: size}
}

func (a *bumpAlloc) Alloc(size uint64) fabric.GPtr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) > 0 {
		g := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		zero := make([]byte, a.size)
		a.f.WriteAtHome(g, zero)
		return g
	}
	return a.f.Reserve(fabric.AlignUp64(size, fabric.LineSize), fabric.LineSize)
}

func (a *bumpAlloc) Free(g fabric.GPtr) {
	poison := bytes.Repeat([]byte{0xFF}, int(a.size))
	a.f.WriteAtHome(g, poison)
	a.mu.Lock()
	a.free = append(a.free, g)
	a.mu.Unlock()
}

func TestEpochAdvanceBlockedByReader(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	reader := d.Participant(f.Node(0), 0)
	writer := d.Participant(f.Node(1), 1)

	reader.Enter()
	if writer.TryAdvance() {
		// The reader pinned the CURRENT epoch, so one advance is allowed —
		// but a second must block until the reader exits.
		if writer.TryAdvance() {
			t.Fatal("epoch advanced twice past an active reader")
		}
	}
	reader.Exit()
	if !writer.TryAdvance() {
		t.Fatal("epoch should advance once reader exited")
	}
}

func TestRetireCollectGracePeriod(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	p := d.Participant(f.Node(0), 0)

	ran := false
	p.Retire(func() { ran = true })
	if p.Collect() != 0 || ran {
		t.Fatal("retired callback ran before grace period")
	}
	if !p.TryAdvance() || !p.TryAdvance() {
		t.Fatal("advance failed with no readers")
	}
	if p.Collect() != 1 || !ran {
		t.Fatal("retired callback did not run after two advances")
	}
	if p.PendingRetired() != 0 {
		t.Fatal("pending list not drained")
	}
}

func TestBarrierReclaimsEverything(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	p := d.Participant(f.Node(0), 0)
	count := 0
	for i := 0; i < 5; i++ {
		p.Retire(func() { count++ })
	}
	p.Barrier()
	if count != 5 {
		t.Fatalf("Barrier reclaimed %d of 5", count)
	}
}

func TestNestedSections(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	p := d.Participant(f.Node(0), 0)
	other := d.Participant(f.Node(1), 1)

	p.Enter()
	p.Enter()
	p.Exit()
	// Still inside: two advances must not both succeed.
	other.TryAdvance()
	if other.TryAdvance() {
		t.Fatal("epoch advanced twice inside nested section")
	}
	p.Exit()
	if !other.TryAdvance() {
		t.Fatal("advance should succeed after outermost Exit")
	}
}

func TestExitWithoutEnterPanics(t *testing.T) {
	f := rack(t, 1)
	p := NewDomain(f, 1).Participant(f.Node(0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Exit without Enter should panic")
		}
	}()
	p.Exit()
}

func TestBarrierInsideSectionPanics(t *testing.T) {
	f := rack(t, 1)
	p := NewDomain(f, 1).Participant(f.Node(0), 0)
	p.Enter()
	defer func() {
		if recover() == nil {
			t.Fatal("Barrier inside section should panic")
		}
	}()
	p.Barrier()
}

func TestParticipantIDBounds(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range participant should panic")
		}
	}()
	d.Participant(f.Node(0), 1)
}

func TestVersionedCellBasicReadWrite(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	a := newBumpAlloc(f, 64)
	w := d.Participant(f.Node(0), 0)
	r := d.Participant(f.Node(1), 1)

	init := bytes.Repeat([]byte{1}, 64)
	c := NewVersionedCell(f, f.Node(0), a, 64, init)
	buf := make([]byte, 64)
	c.Read(r, buf)
	if !bytes.Equal(buf, init) {
		t.Fatalf("initial read = %v", buf[:4])
	}
	c.Write(w, a, bytes.Repeat([]byte{2}, 64))
	c.Read(r, buf)
	if buf[0] != 2 || buf[63] != 2 {
		t.Fatalf("read after write = %v...%v", buf[0], buf[63])
	}
}

// TestVersionedCellNoUseAfterFree hammers a cell with a writer on one node
// and readers on another. Versions hold a counter value replicated across
// the payload; a reader observing a mixed payload (torn version) or the
// 0xFF poison means reclamation freed a version that a reader could still
// see — the exact bug quiescence exists to prevent.
func TestVersionedCellNoUseAfterFree(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	const vsize = 64
	a := newBumpAlloc(f, vsize)
	w := d.Participant(f.Node(0), 0)
	r := d.Participant(f.Node(1), 1)

	mk := func(v uint64) []byte {
		b := make([]byte, vsize)
		for i := 0; i < vsize; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], v)
		}
		return b
	}
	c := NewVersionedCell(f, f.Node(0), a, vsize, mk(0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(1); v <= 400; v++ {
			c.Write(w, a, mk(v))
			w.TryAdvance()
			w.Collect()
		}
	}()
	buf := make([]byte, vsize)
	for {
		select {
		case <-done:
			return
		default:
		}
		c.Read(r, buf)
		first := binary.LittleEndian.Uint64(buf)
		if first == ^uint64(0) {
			t.Fatal("reader saw poisoned (freed) version")
		}
		for i := 8; i < vsize; i += 8 {
			if v := binary.LittleEndian.Uint64(buf[i:]); v != first {
				t.Fatalf("torn version: word0=%d word%d=%d", first, i/8, v)
			}
		}
	}
}

func TestVersionedCellUpdateContention(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	a := newBumpAlloc(f, 64)
	p0 := d.Participant(f.Node(0), 0)
	p1 := d.Participant(f.Node(1), 1)
	c := NewVersionedCell(f, f.Node(0), a, 64, make([]byte, 64))

	incr := func(p *Participant, times int) {
		for i := 0; i < times; i++ {
			c.Update(p, a, func(cur []byte) {
				v := binary.LittleEndian.Uint64(cur)
				binary.LittleEndian.PutUint64(cur, v+1)
			})
			p.TryAdvance()
			p.Collect()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); incr(p0, 200) }()
	go func() { defer wg.Done(); incr(p1, 200) }()
	wg.Wait()

	buf := make([]byte, 64)
	c.Read(p0, buf)
	if got := binary.LittleEndian.Uint64(buf); got != 400 {
		t.Fatalf("counter = %d, want 400 (lost update in multi-version CAS)", got)
	}
}

func TestWriteOversizedPanics(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	a := newBumpAlloc(f, 64)
	p := d.Participant(f.Node(0), 0)
	c := NewVersionedCell(f, f.Node(0), a, 64, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Write should panic")
		}
	}()
	c.Write(p, a, make([]byte, 65))
}

// --- cached-epoch pin ---

// A steady-state Enter publishes its reservation from the cached epoch and
// confirms it with one load: two fabric atomics.
func TestCachedEpochSteadyStateEnterTwoAtomics(t *testing.T) {
	f := rack(t, 1)
	d := NewDomain(f, 1)
	n := f.Node(0)
	p := d.Participant(n, 0)
	p.Enter()
	p.Exit()
	for i := 0; i < 3; i++ {
		before := n.Stats()
		p.Enter()
		if got := n.Stats().Delta(before).Atomics; got != 2 {
			t.Fatalf("steady-state Enter %d cost %d atomics, want 2", i, got)
		}
		p.Exit()
	}
}

// A cached epoch several advances stale first publishes a lower
// reservation, then chases the live epoch: the section still pins
// epoch+1, so exactly one further advance can pass it.
func TestCachedEpochStaleEndsPinAtEpochPlusOne(t *testing.T) {
	f := rack(t, 2)
	d := NewDomain(f, 2)
	reader := d.Participant(f.Node(0), 0)
	other := d.Participant(f.Node(1), 1)
	reader.Enter()
	reader.Exit()
	for i := 0; i < 5; i++ {
		if !other.TryAdvance() {
			t.Fatal("advance failed with no readers")
		}
	}
	reader.Enter()
	e := d.Epoch(f.Node(1))
	if e != 5 {
		t.Fatalf("epoch %d, want 5", e)
	}
	if r := f.Node(1).AtomicLoad64(d.resG[reader.ID()]); r != e+1 {
		t.Fatalf("stale-cached Enter left reservation %d, want epoch+1 = %d", r, e+1)
	}
	if !other.TryAdvance() {
		t.Fatal("the reader pinned the live epoch; one advance must pass")
	}
	if other.TryAdvance() {
		t.Fatal("epoch advanced twice past an active reader")
	}
	reader.Exit()
}

// TestCachedEpochStaleReadersNoUseAfterFree races a writer that keeps
// advancing the epoch against readers that idle between sections, so
// their cached epochs lag by several advances when they Enter. Each
// version's retire callback marks it freed; a reader that finds the
// version it pinned already freed is the use-after-free quiescence must
// prevent.
func TestCachedEpochStaleReadersNoUseAfterFree(t *testing.T) {
	const (
		readers     = 3
		maxVersions = 200000
		wantStale   = 200
	)
	f := rack(t, readers+1)
	d := NewDomain(f, readers+1)
	headG := f.Reserve(fabric.LineSize, fabric.LineSize)
	freed := make([]atomic.Bool, maxVersions+1)
	w := d.Participant(f.Node(0), 0)

	var stop atomic.Bool
	var stale atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 1; i <= readers; i++ {
		p := d.Participant(f.Node(i), i)
		wg.Add(1)
		go func(p *Participant, idle int) {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				if d.Epoch(p.n) >= p.epoch+2 {
					stale.Add(1)
				}
				p.Enter()
				v := p.n.AtomicLoad64(headG)
				for j := 0; j < 4; j++ {
					runtime.Gosched()
				}
				if freed[v].Load() {
					errs <- fmt.Sprintf("reader %d: version %d freed inside the section that pinned it", p.id, v)
					p.Exit()
					return
				}
				p.Exit()
				for j := 0; j < k%idle; j++ {
					runtime.Gosched()
				}
			}
		}(p, 2+3*i)
	}
	// Publish until the readers have entered 2+ advances stale often
	// enough, yielding so they interleave even on one CPU.
	for v := uint64(1); v <= maxVersions && stale.Load() < wantStale; v++ {
		prev := w.n.Swap64(headG, v)
		w.Retire(func() { freed[prev].Store(true) })
		w.TryAdvance()
		w.Collect()
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := stale.Load(); n < wantStale {
		t.Fatalf("readers entered with a cached epoch 2+ advances stale %d times, want %d; the race was not exercised", n, wantStale)
	}
}
