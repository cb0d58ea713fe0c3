package ds

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"flacos/internal/fabric"
)

// brokenSkipPopInvalidate makes the SPSC consume path skip the cache
// invalidates that make the producer's published message visible — a
// deliberately broken sync path the torture harness enables
// (-torture-break ring-invalidate) to prove its checkers catch a removed
// invalidate.
var brokenSkipPopInvalidate atomic.Bool

// SetBrokenSkipPopInvalidate toggles the torture-only broken consume path.
func SetBrokenSkipPopInvalidate(on bool) { brokenSkipPopInvalidate.Store(on) }

// SPSCRing is a single-producer single-consumer ring of variable-length
// messages in global memory: the zero-copy data plane FlacOS IPC builds on
// (§3.5). Head and tail are fabric atomics; message payloads are plain
// cached data published with write-back and consumed after invalidation —
// the "streaming access synchronized via cache invalidation" pattern the
// paper describes for shared data buffers.
//
// The ring itself is shared, stateless layout. A producer or consumer
// that stays on the ring holds a node-private SPSCProducer or SPSCConsumer
// end, which caches the cursors so steady-state traffic pays one fabric
// atomic per message instead of three.
type SPSCRing struct {
	headG    fabric.GPtr // atomic: consumer cursor
	tailG    fabric.GPtr // atomic: producer cursor
	slots    fabric.GPtr
	slotSize uint64 // per-slot bytes, including the 8-byte length header
	capacity uint64 // slots, power of two
}

// NewSPSCRing reserves a ring of capacity slots (rounded to a power of
// two), each carrying messages up to msgMax bytes.
func NewSPSCRing(f *fabric.Fabric, capacity, msgMax uint64) *SPSCRing {
	c := uint64(2)
	for c < capacity {
		c <<= 1
	}
	ss := fabric.AlignUp64(msgMax+8, fabric.LineSize)
	return &SPSCRing{
		headG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		tailG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		slots:    f.Reserve(c*ss, fabric.LineSize),
		slotSize: ss,
		capacity: c,
	}
}

// MsgMax returns the largest message the ring accepts.
func (r *SPSCRing) MsgMax() uint64 { return r.slotSize - 8 }

// Cap returns the ring's slot capacity.
func (r *SPSCRing) Cap() uint64 { return r.capacity }

func (r *SPSCRing) slotG(pos uint64) fabric.GPtr {
	return r.slots.Add((pos & (r.capacity - 1)) * r.slotSize)
}

// Producer returns a producer end for r. It costs nothing until its first
// push, which loads the ring's cursors from home memory.
func (r *SPSCRing) Producer() SPSCProducer { return SPSCProducer{r: r} }

// Consumer returns a consumer end for r. It costs nothing until its first
// pop, which loads the ring's cursors from home memory.
func (r *SPSCRing) Consumer() SPSCConsumer { return SPSCConsumer{r: r} }

// TryPush enqueues msg through a throwaway producer end, returning false
// if the ring is full. Only one goroutine (the producer) may push at a
// time. It pays the two cursor loads a long-lived end amortizes away.
func (r *SPSCRing) TryPush(n *fabric.Node, msg []byte) bool {
	p := r.Producer()
	return p.TryPush(n, msg)
}

// Push enqueues msg, spinning while the ring is full.
func (r *SPSCRing) Push(n *fabric.Node, msg []byte) {
	p := r.Producer()
	p.Push(n, msg)
}

// TryPop dequeues one message into buf through a throwaway consumer end,
// returning its length and whether a message was available. Only one
// goroutine (the consumer) may pop at a time.
func (r *SPSCRing) TryPop(n *fabric.Node, buf []byte) (int, bool) {
	c := r.Consumer()
	return c.TryPop(n, buf)
}

// Pop dequeues one message, spinning while the ring is empty.
func (r *SPSCRing) Pop(n *fabric.Node, buf []byte) int {
	c := r.Consumer()
	return c.Pop(n, buf)
}

// Len returns the number of queued messages.
func (r *SPSCRing) Len(n *fabric.Node) uint64 {
	return n.AtomicLoad64(r.tailG) - n.AtomicLoad64(r.headG)
}

// SPSCProducer is the producer's node-private end of an SPSCRing. It owns
// the tail cursor, so it keeps it in private memory and only publishes
// it, and it caches the consumer's head, reloading it only when the ring
// looks full. A stale head only under-counts free slots, so the cache is
// always safe. At most one end may produce on a ring at a time.
type SPSCProducer struct {
	r      *SPSCRing
	synced bool   // tail and head hold values loaded from the ring
	tail   uint64 // own cursor, equal to the published tail
	head   uint64 // cached consumer cursor, never ahead of the real one
}

// TryPush enqueues msg, returning false if the ring is full. A steady-
// state push pays one fabric atomic: the tail publication.
func (p *SPSCProducer) TryPush(n *fabric.Node, msg []byte) bool {
	r := p.r
	if uint64(len(msg)) > r.MsgMax() {
		panic(fmt.Sprintf("ds: message %d exceeds ring max %d", len(msg), r.MsgMax()))
	}
	if !p.synced {
		// Starting with the ring looking full makes the check below load
		// the head too.
		p.tail = n.AtomicLoad64(r.tailG)
		p.head = p.tail - r.capacity
		p.synced = true
	}
	if p.tail-p.head == r.capacity {
		if p.head = n.AtomicLoad64(r.headG); p.tail-p.head == r.capacity {
			return false
		}
	}
	s := r.slotG(p.tail)
	n.Store64(s, uint64(len(msg)))
	if len(msg) > 0 {
		n.Write(s.Add(8), msg)
	}
	n.WriteBackRange(s, 8+uint64(len(msg)))
	n.AtomicStore64(r.tailG, p.tail+1)
	p.tail++
	return true
}

// Push enqueues msg, spinning while the ring is full.
func (p *SPSCProducer) Push(n *fabric.Node, msg []byte) {
	for !p.TryPush(n, msg) {
		runtime.Gosched()
	}
}

// SPSCConsumer is the consumer's node-private end of an SPSCRing. It owns
// the head cursor and caches the producer's tail, reloading it only when
// the ring looks empty. A stale tail only under-counts queued messages,
// and every slot line is still invalidated right before it is read, so
// the cache changes what the consumer pays, never what it sees. At most
// one end may consume from a ring at a time.
type SPSCConsumer struct {
	r      *SPSCRing
	synced bool   // head and tail hold values loaded from the ring
	head   uint64 // own cursor, equal to the published head
	tail   uint64 // cached producer cursor, never ahead of the real one
}

// TryPop dequeues one message into buf, returning its length and whether a
// message was available. A pop on a ring this end last saw empty pays two
// fabric atomics (the tail reload and the head publication), later pops
// of the messages it saw pay one.
//
// Only the lines the message occupies are invalidated: the header line
// first, to read the length, then the payload lines beyond it. Lines past
// the message may hold an earlier lap's bytes, but they are never read.
func (c *SPSCConsumer) TryPop(n *fabric.Node, buf []byte) (int, bool) {
	r := c.r
	if !c.synced {
		// Starting with the ring looking empty makes the check below load
		// the tail too.
		c.head = n.AtomicLoad64(r.headG)
		c.tail = c.head
		c.synced = true
	}
	if c.head == c.tail {
		if c.tail = n.AtomicLoad64(r.tailG); c.head == c.tail {
			return 0, false
		}
	}
	s := r.slotG(c.head)
	broken := brokenSkipPopInvalidate.Load()
	if !broken {
		n.InvalidateRange(s, fabric.LineSize)
	}
	// The invalidates are conditional ONLY because the torture harness
	// plants their removal as a self-test bug (-torture-break
	// ring-invalidate); flacvet correctly sees a path without them. The
	// unconditional-skip variant lives in coherlint's testdata corpus,
	// where the linter must (and does) flag it.
	//flacvet:ignore read-without-invalidate torture-only broken path, see SetBrokenSkipPopInvalidate
	ln := n.Load64(s)
	if ln > uint64(len(buf)) {
		panic(fmt.Sprintf("ds: buffer %d too small for message %d", len(buf), ln))
	}
	if ln > 0 {
		if end := 8 + ln; end > fabric.LineSize && !broken {
			n.InvalidateRange(s.Add(fabric.LineSize), end-fabric.LineSize)
		}
		n.Read(s.Add(8), buf[:ln])
	}
	n.AtomicStore64(r.headG, c.head+1)
	c.head++
	return int(ln), true
}

// Pop dequeues one message, spinning while the ring is empty.
func (c *SPSCConsumer) Pop(n *fabric.Node, buf []byte) int {
	for {
		if ln, ok := c.TryPop(n, buf); ok {
			return ln
		}
		runtime.Gosched()
	}
}

// MPSCRing is a multi-producer single-consumer ring (Vyukov bounded queue
// over fabric atomics): producers on any node, one consumer. FlacOS uses it
// for request funnels such as the RPC dispatch queue.
type MPSCRing struct {
	headG    fabric.GPtr // atomic: consumer cursor
	tailG    fabric.GPtr // atomic: producer ticket
	slots    fabric.GPtr
	slotSize uint64 // seq line + payload
	capacity uint64
}

// NewMPSCRing reserves a ring of capacity slots (power of two), messages up
// to msgMax bytes. node initializes the per-slot sequence words.
func NewMPSCRing(f *fabric.Fabric, node *fabric.Node, capacity, msgMax uint64) *MPSCRing {
	c := uint64(2)
	for c < capacity {
		c <<= 1
	}
	// Slot: one control line (word0 seq, word1 len) + payload lines.
	ss := fabric.LineSize + fabric.AlignUp64(msgMax, fabric.LineSize)
	r := &MPSCRing{
		headG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		tailG:    f.Reserve(fabric.LineSize, fabric.LineSize),
		slots:    f.Reserve(c*ss, fabric.LineSize),
		slotSize: ss,
		capacity: c,
	}
	for i := uint64(0); i < c; i++ {
		node.AtomicStore64(r.seqG(i), i)
	}
	return r
}

func (r *MPSCRing) seqG(i uint64) fabric.GPtr { return r.slots.Add(i * r.slotSize) }
func (r *MPSCRing) lenG(i uint64) fabric.GPtr { return r.seqG(i).Add(8) }
func (r *MPSCRing) payG(i uint64) fabric.GPtr { return r.seqG(i).Add(fabric.LineSize) }

// MsgMax returns the largest message the ring accepts.
func (r *MPSCRing) MsgMax() uint64 { return r.slotSize - fabric.LineSize }

// TryPush enqueues msg from any producer, returning false if full.
func (r *MPSCRing) TryPush(n *fabric.Node, msg []byte) bool {
	if uint64(len(msg)) > r.MsgMax() {
		panic(fmt.Sprintf("ds: message %d exceeds ring max %d", len(msg), r.MsgMax()))
	}
	pos := n.AtomicLoad64(r.tailG)
	for {
		i := pos & (r.capacity - 1)
		seq := n.AtomicLoad64(r.seqG(i))
		switch {
		case seq == pos:
			if n.CAS64(r.tailG, pos, pos+1) {
				if len(msg) > 0 {
					n.Write(r.payG(i), msg)
					n.WriteBackRange(r.payG(i), uint64(len(msg)))
				}
				n.AtomicStore64(r.lenG(i), uint64(len(msg)))
				n.AtomicStore64(r.seqG(i), pos+1)
				return true
			}
			pos = n.AtomicLoad64(r.tailG)
		case seq < pos:
			return false // slot not yet consumed: full
		default:
			pos = n.AtomicLoad64(r.tailG)
		}
	}
}

// Push enqueues msg, spinning while the ring is full.
func (r *MPSCRing) Push(n *fabric.Node, msg []byte) {
	for !r.TryPush(n, msg) {
		runtime.Gosched()
	}
}

// TryPop dequeues one message; single consumer only.
func (r *MPSCRing) TryPop(n *fabric.Node, buf []byte) (int, bool) {
	pos := n.AtomicLoad64(r.headG)
	i := pos & (r.capacity - 1)
	if n.AtomicLoad64(r.seqG(i)) != pos+1 {
		return 0, false
	}
	ln := n.AtomicLoad64(r.lenG(i))
	if ln > uint64(len(buf)) {
		panic(fmt.Sprintf("ds: buffer %d too small for message %d", len(buf), ln))
	}
	if ln > 0 {
		n.InvalidateRange(r.payG(i), ln)
		n.Read(r.payG(i), buf[:ln])
	}
	n.AtomicStore64(r.seqG(i), pos+r.capacity)
	n.AtomicStore64(r.headG, pos+1)
	return int(ln), true
}

// Pop dequeues one message, spinning while the ring is empty.
func (r *MPSCRing) Pop(n *fabric.Node, buf []byte) int {
	for {
		if ln, ok := r.TryPop(n, buf); ok {
			return ln
		}
		runtime.Gosched()
	}
}
