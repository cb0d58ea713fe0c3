package ds

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flacos/internal/fabric"
)

// Tests for the node-private SPSC ring ends: they must deliver exactly
// what the stateless path delivers, see no stale bytes when the payload
// invalidate is narrowed to the message, and pay the cursor traffic the
// cache is there to save.

// ringMsg fills a message whose every byte depends on seq, so a byte left
// over from another lap of the slot never matches.
func ringMsg(seq, ln int) []byte {
	m := make([]byte, ln)
	for i := range m {
		m[i] = byte(seq*131 + i*7 + 1)
	}
	return m
}

// TestSPSCEndsMatchStateless drives one ring through long-lived ends and a
// twin ring through the stateless TryPush/TryPop with the same seeded
// operation sequence, producer and consumer on different nodes, and
// requires identical outcomes: the same pushes accepted, the same pops
// answered, the same bytes delivered.
func TestSPSCEndsMatchStateless(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			f := rack(t, 2, 4)
			ends := NewSPSCRing(f, 4, 300)
			plain := NewSPSCRing(f, 4, 300)
			prod, cons := f.Node(0), f.Node(1)
			p, c := ends.Producer(), ends.Consumer()
			rng := rand.New(rand.NewSource(seed))
			bufE := make([]byte, ends.MsgMax())
			bufP := make([]byte, plain.MsgMax())
			seq, full, empty := 0, 0, 0
			for op := 0; op < 4000; op++ {
				if rng.Intn(2) == 0 {
					msg := ringMsg(seq, rng.Intn(int(ends.MsgMax())+1))
					okE, okP := p.TryPush(prod, msg), plain.TryPush(prod, msg)
					if okE != okP {
						t.Fatalf("op %d: push ok ends=%v stateless=%v", op, okE, okP)
					}
					if okE {
						seq++
					} else {
						full++
					}
					continue
				}
				lnE, okE := c.TryPop(cons, bufE)
				lnP, okP := plain.TryPop(cons, bufP)
				if okE != okP || lnE != lnP || !bytes.Equal(bufE[:lnE], bufP[:lnP]) {
					t.Fatalf("op %d: pop ends=(%d,%v) stateless=(%d,%v) or bytes differ", op, lnE, okE, lnP, okP)
				}
				if !okE {
					empty++
				}
			}
			if full == 0 || empty == 0 {
				t.Fatalf("sequence never hit both a full ring (%d) and an empty one (%d)", full, empty)
			}
		})
	}
}

// TestSPSCEndsNoStaleSlotAcrossLaps sends long, short, long messages over
// a two-slot ring so every slot is reused with a different length each
// lap. The consumer, on another node, pops each message right after its
// push, so its cache always holds the slot's lines from the previous lap:
// any payload line the narrowed invalidate missed would decode stale
// bytes. The same run with the invalidates removed must see them.
func TestSPSCEndsNoStaleSlotAcrossLaps(t *testing.T) {
	run := func() (stale int) {
		f := rack(t, 2, 4)
		r := NewSPSCRing(f, 2, 1000)
		prod, cons := f.Node(0), f.Node(1)
		p, c := r.Producer(), r.Consumer()
		lens := []int{1000, 12, 700, 56, 57, 1000, 0, 300}
		buf := make([]byte, r.MsgMax())
		for seq := 0; seq < 60; seq++ {
			want := ringMsg(seq, lens[seq%len(lens)])
			if !p.TryPush(prod, want) {
				t.Fatalf("seq %d: push into a drained ring failed", seq)
			}
			ln, ok := c.TryPop(cons, buf)
			if !ok {
				t.Fatalf("seq %d: pop found the ring empty", seq)
			}
			if !bytes.Equal(buf[:ln], want) {
				stale++
			}
		}
		return stale
	}
	if stale := run(); stale != 0 {
		t.Fatalf("%d messages decoded stale bytes", stale)
	}
	SetBrokenSkipPopInvalidate(true)
	defer SetBrokenSkipPopInvalidate(false)
	if stale := run(); stale == 0 {
		t.Fatal("with the invalidates removed the run saw no stale bytes: the test cannot detect a missed line")
	}
}

// TestSPSCEndsAtomicCost pins the fabric atomics per operation from
// Node.Stats deltas: a steady-state push pays one (the tail publication),
// a pop on a ring its end last saw empty pays two (tail reload and head
// publication), and the stateless wrappers keep the three atomics the
// uncached ring always paid.
func TestSPSCEndsAtomicCost(t *testing.T) {
	f := rack(t, 2, 4)
	r := NewSPSCRing(f, 8, 64)
	prod, cons := f.Node(0), f.Node(1)
	atomics := func(n *fabric.Node, op func()) uint64 {
		before := n.Stats().Atomics
		op()
		return n.Stats().Atomics - before
	}
	p, c := r.Producer(), r.Consumer()
	buf := make([]byte, 64)
	msg := []byte("payload")
	pop := func() {
		if _, ok := c.TryPop(cons, buf); !ok {
			t.Fatal("pop found the ring empty")
		}
	}

	if got := atomics(prod, func() { p.TryPush(prod, msg) }); got != 3 {
		t.Fatalf("first push paid %d atomics, want 3 (cursor loads + publish)", got)
	}
	for i := 0; i < 6; i++ {
		if got := atomics(prod, func() { p.TryPush(prod, msg) }); got != 1 {
			t.Fatalf("steady-state push %d paid %d atomics, want 1", i, got)
		}
	}
	if got := atomics(cons, pop); got != 3 {
		t.Fatalf("first pop paid %d atomics, want 3 (cursor loads + publish)", got)
	}
	for i := 0; i < 6; i++ {
		if got := atomics(cons, pop); got != 1 {
			t.Fatalf("pop %d of a seen backlog paid %d atomics, want 1", i, got)
		}
	}
	if got := atomics(cons, func() { c.TryPop(cons, buf) }); got != 1 {
		t.Fatalf("pop of an empty ring paid %d atomics, want 1 (tail reload)", got)
	}
	p.TryPush(prod, msg)
	if got := atomics(cons, pop); got != 2 {
		t.Fatalf("pop on a ring last seen empty paid %d atomics, want 2", got)
	}

	// Full ring: the producer reloads the head once per attempt.
	for p.TryPush(prod, msg) {
	}
	if got := atomics(prod, func() { p.TryPush(prod, msg) }); got != 1 {
		t.Fatalf("push into a full ring paid %d atomics, want 1 (head reload)", got)
	}
	pop()
	if got := atomics(prod, func() { p.TryPush(prod, msg) }); got != 2 {
		t.Fatalf("push after the consumer freed a slot paid %d atomics, want 2", got)
	}

	// Stateless wrappers: throwaway ends built from two cursor loads.
	if got := atomics(prod, func() { r.TryPush(prod, msg) }); got != 2 {
		t.Fatalf("stateless push into a full ring paid %d atomics, want 2", got)
	}
	if got := atomics(cons, func() { r.TryPop(cons, buf) }); got != 3 {
		t.Fatalf("stateless pop paid %d atomics, want 3", got)
	}
	if got := atomics(prod, func() { r.TryPush(prod, msg) }); got != 3 {
		t.Fatalf("stateless push paid %d atomics, want 3", got)
	}
	for {
		if _, ok := r.TryPop(cons, buf); !ok {
			break
		}
	}
	if got := atomics(cons, func() { r.TryPop(cons, buf) }); got != 2 {
		t.Fatalf("stateless pop of an empty ring paid %d atomics, want 2", got)
	}
}
