package redis

import (
	"encoding/binary"
	"errors"
	"runtime"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/alloc"
	"flacos/internal/flacdk/delegation"
	"flacos/internal/trace"
)

// Hot-key combining (paper §3.2, delegation applied to the rack store).
//
// Under a Zipfian workload a handful of keys absorb most of the traffic.
// On the rack store every write to such a key is a publish race: N nodes
// allocate N fresh entry blocks and fight one index CAS, so N-1 of them
// free their block and retry — fabric atomics per success grow with the
// fan-in, and the key stops scaling exactly when it matters (GCS's
// prediction for naive shared-memory hot spots). Combining routes a hot
// key's operations to its OWNER node through a delegation domain instead:
// clients post GET/INCRBY requests into their slots, the owner gathers a
// sweep, and executes ONE store operation per key per sweep — one Get
// serves every gathered read, one IncrBy with the summed delta serves
// every gathered increment (each caller receives its own intermediate
// value, as if the increments ran back to back). The CAS storm collapses
// into a single uncontended publish.
//
// Combining preserves the store's coherence contract because the owner is
// just another View: the combined IncrBy goes through the same
// write-back-then-publish path as any other write, and every reply the
// owner hands out corresponds to a state the arena actually reached.
// SetBrokenSkipCombineFlush deliberately breaks exactly that step (replies
// computed in owner-private state, publish skipped) so the
// linearizability self-test can prove the checker notices.

// Delegation wire protocol: op codes posted by CombineClient.
const (
	combineOpGet    = 1 // payload: key bytes
	combineOpIncrBy = 2 // payload: 8-byte little-endian delta | key bytes
)

// Reply status codes.
const (
	combineMiss  = 0 // GET: key absent/expired; empty payload
	combineFound = 1 // GET: payload = value; INCRBY: payload = 8-byte result
	combineErr   = 2 // payload = error text
)

// CombineKeyMax bounds a combinable key (the INCRBY frame carries an
// 8-byte delta before the key, and both must fit a delegation payload).
const CombineKeyMax = delegation.PayloadMax - 8

// CombineValueMax bounds a value returned through the combining path.
const CombineValueMax = delegation.PayloadMax

// HotTracker decides online which keys are hot enough to route through a
// combiner. It is a thin keyed front end over flacdk/alloc's decaying
// HotnessTracker — the same EWMA machinery the allocator uses to pack hot
// objects, here keyed by the store's 64-bit key hash. Not concurrency
// safe: one per worker, like a View.
type HotTracker struct {
	h         *alloc.HotnessTracker
	threshold float64
}

// NewHotTracker creates a tracker: heat decays by decay per Decay() call,
// and a key counts as hot once its heat reaches threshold.
func NewHotTracker(decay, threshold float64) *HotTracker {
	if threshold <= 0 {
		panic("redis: HotTracker threshold must be positive")
	}
	return &HotTracker{h: alloc.NewHotnessTracker(decay), threshold: threshold}
}

// Touch records one access to key.
func (t *HotTracker) Touch(key string) { t.h.Touch(fabric.GPtr(keyHash(key))) }

// Hot reports whether key's decayed access frequency has crossed the
// combining threshold.
func (t *HotTracker) Hot(key string) bool {
	return t.h.Heat(fabric.GPtr(keyHash(key))) >= t.threshold
}

// Decay ages every key's heat; call it once per sampling interval so a
// key that cools off stops being combined.
func (t *HotTracker) Decay() { t.h.Decay() }

// Combiner is the owner side of hot-key combining: a delegation server
// whose sweep gathers every pending request, groups them by key, and
// executes one store operation per group through the owner's View.
type Combiner struct {
	view *View
	sv   *delegation.Server

	reqs   []delegation.Request
	order  []combineGroup
	broken bool
	shadow map[string]int64 // broken mode's never-published counters
}

type combineGroup struct {
	op   uint32
	key  string
	reqs []delegation.Request
}

// NewCombiner binds the owner's combining server: view is the owner
// node's store attachment, dom the delegation domain its clients post
// into. Like a View, a Combiner serves one goroutine.
func NewCombiner(view *View, dom *delegation.Domain) *Combiner {
	return &Combiner{view: view, sv: dom.Server(view.Node(), nil)}
}

// View returns the owner's store attachment.
func (cb *Combiner) View() *View { return cb.view }

// SetBrokenSkipCombineFlush toggles a DELIBERATE bug for the checker
// self-test: combined increments are applied to an owner-private shadow
// map and the arena publish is skipped, so replies report states no other
// node can ever observe. Never enable outside tests.
func (cb *Combiner) SetBrokenSkipCombineFlush(on bool) {
	cb.broken = on
	if on && cb.shadow == nil {
		cb.shadow = make(map[string]int64)
	}
}

// ServeSweep collects one sweep of pending requests and serves them with
// one store operation per (op, key) group, returning how many requests it
// served. Every request in a sweep was posted before any of them
// completes, so they are pairwise concurrent and ANY serve order is a
// valid linearization; the sweep picks the CANONICAL one — all increment
// groups first (first-seen order), then all read groups. Canonical order
// is what lets one caller put an INCRBY and a GET on the same key into
// the same sweep and still see monotone results: its GET observes the
// post-increment state, never a torn interleaving that depends on slot
// numbering.
func (cb *Combiner) ServeSweep() int {
	cb.reqs = cb.sv.CollectOnce(cb.reqs[:0])
	if len(cb.reqs) == 0 {
		return 0
	}
	cb.order = cb.order[:0]
	for _, rq := range cb.reqs {
		key, ok := combineReqKey(rq)
		if !ok {
			cb.sv.ReplyDeferred(rq.Slot, rq.Seq, combineErr, []byte("bad combine frame"))
			continue
		}
		cb.addToGroup(rq.Op, key, rq)
	}
	served := 0
	// One read section covers the whole sweep, so the groups' store
	// operations nest inside it instead of each pinning and releasing an
	// epoch of its own: the sweep pays the pin once, as MGet does.
	cb.view.p.Enter()
	for _, wantOp := range [...]uint32{combineOpIncrBy, combineOpGet} {
		for i := range cb.order {
			g := &cb.order[i]
			if g.op != wantOp {
				continue
			}
			served += len(g.reqs)
			if g.op == combineOpIncrBy {
				cb.serveIncrGroup(g)
			} else {
				cb.serveGetGroup(g)
			}
		}
	}
	cb.view.p.Exit()
	for i := range cb.order {
		g := &cb.order[i]
		if g.op == combineOpIncrBy || g.op == combineOpGet {
			continue
		}
		served += len(g.reqs)
		for _, rq := range g.reqs {
			cb.sv.ReplyDeferred(rq.Slot, rq.Seq, combineErr, []byte("unknown combine op"))
		}
	}
	// One write-back burst publishes the whole sweep's replies.
	cb.sv.FlushReplies()
	return served
}

func (cb *Combiner) addToGroup(op uint32, key string, rq delegation.Request) {
	for i := range cb.order {
		if cb.order[i].op == op && cb.order[i].key == key {
			cb.order[i].reqs = append(cb.order[i].reqs, rq)
			return
		}
	}
	cb.order = append(cb.order, combineGroup{op: op, key: key, reqs: []delegation.Request{rq}})
}

// combineReqKey extracts the key from a request frame.
func combineReqKey(rq delegation.Request) (string, bool) {
	switch rq.Op {
	case combineOpGet:
		return string(rq.Payload), true
	case combineOpIncrBy:
		if len(rq.Payload) < 8 {
			return "", false
		}
		return string(rq.Payload[8:]), true
	}
	return string(rq.Payload), true
}

// serveGetGroup answers a whole GET fan-in from one store read.
func (cb *Combiner) serveGetGroup(g *combineGroup) {
	cb.traceBegin(g)
	defer cb.traceEnd(g)
	val, ok := cb.view.Get(g.key)
	status := uint32(combineMiss)
	var payload []byte
	switch {
	case ok && len(val) > CombineValueMax:
		status, payload = combineErr, []byte("value exceeds combine payload")
	case ok:
		status, payload = combineFound, val
	}
	for _, rq := range g.reqs {
		cb.sv.ReplyDeferred(rq.Slot, rq.Seq, status, payload)
	}
}

// serveIncrGroup applies a whole increment batch with ONE IncrBy of the
// summed delta, then hands each caller its intermediate value (base plus
// its prefix sum) — exactly the results the increments would have
// produced run back to back in gathered order.
func (cb *Combiner) serveIncrGroup(g *combineGroup) {
	cb.traceBegin(g)
	defer cb.traceEnd(g)
	var sum int64
	for _, rq := range g.reqs {
		sum += int64(binary.LittleEndian.Uint64(rq.Payload[:8]))
	}
	var base int64
	if cb.broken {
		// The deliberate bug: compute from the shadow, skip the publish.
		base = cb.shadow[g.key]
		cb.shadow[g.key] = base + sum
	} else {
		final, err := cb.view.IncrBy(g.key, sum)
		if err != nil {
			for _, rq := range g.reqs {
				cb.sv.ReplyDeferred(rq.Slot, rq.Seq, combineErr, []byte(err.Error()))
			}
			return
		}
		base = final - sum
	}
	var out [8]byte
	run := base
	for _, rq := range g.reqs {
		run += int64(binary.LittleEndian.Uint64(rq.Payload[:8]))
		binary.LittleEndian.PutUint64(out[:], uint64(run))
		cb.sv.ReplyDeferred(rq.Slot, rq.Seq, combineFound, out[:])
	}
}

func (cb *Combiner) traceBegin(g *combineGroup) {
	if cb.view.tw != nil {
		cb.view.tw.Begin(trace.SubRedis, trace.KCombine, keyHash(g.key), uint64(len(g.reqs)))
	}
}

func (cb *Combiner) traceEnd(g *combineGroup) {
	if cb.view.tw != nil {
		cb.view.tw.End(trace.SubRedis, trace.KCombine, keyHash(g.key), uint64(len(g.reqs)))
	}
}

// CombineOwner maps a key to its owning node: the node that runs the
// key's combiner and whose view executes its combined operations. The
// assignment is pure key-hash, so every node routes a key identically
// with no coordination.
func CombineOwner(key string, nodes int) int {
	return int(keyHash(key) % uint64(nodes))
}

// CombineClient is one caller's handle on a combining domain: a single
// delegation slot plus frame encoding. Not safe for concurrent use.
type CombineClient struct {
	c    *delegation.Client
	resp []byte
}

// NewCombineClient binds node n to slot of dom.
func NewCombineClient(dom *delegation.Domain, n *fabric.Node, slot int) *CombineClient {
	return &CombineClient{c: dom.Client(n, slot), resp: make([]byte, delegation.PayloadMax)}
}

// PostGet publishes a GET for key without waiting (barriered harnesses
// pair it with TryGet after the owner's sweep).
func (cc *CombineClient) PostGet(key string) {
	if len(key) > delegation.PayloadMax {
		panic("redis: combine key exceeds payload")
	}
	cc.c.Post(combineOpGet, []byte(key))
}

// PostIncrBy publishes an INCRBY of delta on key without waiting.
func (cc *CombineClient) PostIncrBy(key string, delta int64) {
	if len(key) > CombineKeyMax {
		panic("redis: combine key exceeds payload")
	}
	buf := make([]byte, 8+len(key))
	binary.LittleEndian.PutUint64(buf, uint64(delta))
	copy(buf[8:], key)
	cc.c.Post(combineOpIncrBy, buf)
}

// TryGet polls for a posted GET's reply. The returned value is a private
// copy.
func (cc *CombineClient) TryGet() (val []byte, ok, done bool, err error) {
	n, st, d := cc.c.TryComplete(cc.resp)
	if !d {
		return nil, false, false, nil
	}
	switch st {
	case combineFound:
		v := make([]byte, n)
		copy(v, cc.resp[:n])
		return v, true, true, nil
	case combineMiss:
		return nil, false, true, nil
	}
	return nil, false, true, errors.New("redis: combine: " + string(cc.resp[:n]))
}

// TryIncr polls for a posted INCRBY's reply.
func (cc *CombineClient) TryIncr() (val int64, done bool, err error) {
	n, st, d := cc.c.TryComplete(cc.resp)
	if !d {
		return 0, false, nil
	}
	if st != combineFound || n != 8 {
		return 0, true, errors.New("redis: combine: " + string(cc.resp[:n]))
	}
	return int64(binary.LittleEndian.Uint64(cc.resp[:8])), true, nil
}

// CombineGroup is one caller's BATCHED handle on a combining domain: a
// contiguous range of delegation slots plus frame encoding. A cycle posts
// several hot ops, flushes them as one burst, and — after the owner's
// sweep — refreshes the response stripe once and completes every op from
// the snapshot, so the per-op fabric cost is a fraction of a slot-at-a-
// time client's. Not safe for concurrent use.
type CombineGroup struct {
	g    *delegation.ClientGroup
	resp []byte
}

// NewCombineGroup binds node n to slots [lo, lo+count) of dom. Align lo
// and count to 8 for atomic-free flushes.
func NewCombineGroup(dom *delegation.Domain, n *fabric.Node, lo, count int) *CombineGroup {
	return &CombineGroup{g: dom.ClientGroup(n, lo, count), resp: make([]byte, delegation.PayloadMax)}
}

// Free returns how many more ops fit before the batch must complete.
func (cg *CombineGroup) Free() int { return cg.g.Free() }

// PostGet stages a GET for key, returning its batch index.
func (cg *CombineGroup) PostGet(key string) int {
	if len(key) > delegation.PayloadMax {
		panic("redis: combine key exceeds payload")
	}
	return cg.g.Post(combineOpGet, []byte(key))
}

// PostIncrBy stages an INCRBY of delta on key, returning its batch index.
func (cg *CombineGroup) PostIncrBy(key string, delta int64) int {
	if len(key) > CombineKeyMax {
		panic("redis: combine key exceeds payload")
	}
	buf := make([]byte, 8+len(key))
	binary.LittleEndian.PutUint64(buf, uint64(delta))
	copy(buf[8:], key)
	return cg.g.Post(combineOpIncrBy, buf)
}

// Flush publishes every staged op to the owner as one burst.
func (cg *CombineGroup) Flush() { cg.g.Flush() }

// Refresh bulk-fetches the group's response stripe; call before a round
// of TryGet/TryIncr polls.
func (cg *CombineGroup) Refresh() { cg.g.Refresh() }

// Recycle frees all slots once a batch has fully completed.
func (cg *CombineGroup) Recycle() { cg.g.Recycle() }

// TryGet checks the refreshed snapshot for batch index i's GET reply.
// The returned value is a private copy.
func (cg *CombineGroup) TryGet(i int) (val []byte, ok, done bool, err error) {
	n, st, d := cg.g.TryComplete(i, cg.resp)
	if !d {
		return nil, false, false, nil
	}
	switch st {
	case combineFound:
		v := make([]byte, n)
		copy(v, cg.resp[:n])
		return v, true, true, nil
	case combineMiss:
		return nil, false, true, nil
	}
	return nil, false, true, errors.New("redis: combine: " + string(cg.resp[:n]))
}

// TryIncr checks the refreshed snapshot for batch index i's INCRBY reply.
func (cg *CombineGroup) TryIncr(i int) (val int64, done bool, err error) {
	n, st, d := cg.g.TryComplete(i, cg.resp)
	if !d {
		return 0, false, nil
	}
	if st != combineFound || n != 8 {
		return 0, true, errors.New("redis: combine: " + string(cg.resp[:n]))
	}
	return int64(binary.LittleEndian.Uint64(cg.resp[:8])), true, nil
}

// Get posts a GET and spins until the owner answers. Spinning charges
// nondeterministic virtual time, so this is for correctness tests; the
// measured experiments use the Post/Try split under barriers.
func (cc *CombineClient) Get(key string) ([]byte, bool, error) {
	cc.PostGet(key)
	for {
		val, ok, done, err := cc.TryGet()
		if done {
			return val, ok, err
		}
		runtime.Gosched()
	}
}

// IncrBy posts an INCRBY and spins until the owner answers.
func (cc *CombineClient) IncrBy(key string, delta int64) (int64, error) {
	cc.PostIncrBy(key, delta)
	for {
		val, done, err := cc.TryIncr()
		if done {
			return val, err
		}
		runtime.Gosched()
	}
}
