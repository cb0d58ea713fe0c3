// Package quiescence implements FlacDK's quiescence-based synchronization
// (paper §3.2): RCU-style epochs over the non-coherent fabric, with
// multi-version objects instead of in-place modification.
//
// The paper notes this method is particularly effective on non-cache-
// coherent shared memory because it converts the problem of tracking stale
// cache lines into tracking parallel references (the "bounded incoherence"
// model): an object version is immutable once published, readers always
// invalidate its lines before reading, and a version's memory is reused
// only after a grace period proves no reader can still hold a reference.
//
// Epoch protocol (classic 2-epoch EBR, fabric edition):
//   - a global epoch word lives in global memory, advanced with CAS;
//   - each participant has a reservation word (own cache line): 0 when
//     quiescent, epoch+1 while inside a read section;
//   - the epoch advances only when every active participant has observed
//     the current epoch, and memory retired in epoch e is reclaimed once
//     the global epoch reaches e+2.
//
// Checkpointing integrates here exactly as §3.2 prescribes: a checkpointer
// participates like a reader (Pin), so versions it is copying cannot be
// reclaimed underneath it, and retired versions double as checkpoint data.
package quiescence

import (
	"fmt"
	"runtime"
	"sync"

	"flacos/internal/fabric"
)

// Domain is one reclamation domain shared by up to maxParticipants
// participants across the rack.
type Domain struct {
	fab    *fabric.Fabric
	epochG fabric.GPtr
	resG   []fabric.GPtr
}

// NewDomain reserves the domain's epoch and reservation words.
func NewDomain(f *fabric.Fabric, maxParticipants int) *Domain {
	if maxParticipants <= 0 {
		panic("quiescence: maxParticipants must be positive")
	}
	d := &Domain{
		fab:    f,
		epochG: f.Reserve(fabric.LineSize, fabric.LineSize),
		resG:   make([]fabric.GPtr, maxParticipants),
	}
	for i := range d.resG {
		d.resG[i] = f.Reserve(fabric.LineSize, fabric.LineSize)
	}
	return d
}

// Epoch returns the current global epoch as seen by node n.
func (d *Domain) Epoch(n *fabric.Node) uint64 { return n.AtomicLoad64(d.epochG) }

// retired is one deferred reclamation.
type retired struct {
	epoch uint64
	fn    func()
}

// Participant is one thread-of-execution's attachment to the domain. Each
// participant owns its reservation word exclusively; a Participant must not
// be shared between goroutines (register one per worker).
type Participant struct {
	d  *Domain
	n  *fabric.Node
	id int

	mu      sync.Mutex // guards retired list (local bookkeeping)
	retired []retired
	depth   int
	epoch   uint64 // node-private cache of the epoch Enter or TryAdvance last saw
}

// ID returns the participant's slot in the domain (used to Fence it after
// a crash).
func (p *Participant) ID() int { return p.id }

// Participant attaches node n as participant id (0 <= id < maxParticipants).
func (d *Domain) Participant(n *fabric.Node, id int) *Participant {
	if id < 0 || id >= len(d.resG) {
		panic(fmt.Sprintf("quiescence: participant id %d out of range [0,%d)", id, len(d.resG)))
	}
	return &Participant{d: d, n: n, id: id}
}

// Enter begins a read-side critical section, pinning the current epoch.
// Sections nest; only the outermost Enter publishes a reservation.
//
// The first reservation comes from the epoch this participant last saw
// (its previous pin or its own TryAdvance), cached in the participant, so
// the steady state costs one store and one load instead of a load, a
// store and a re-check load. A stale cache is
// conservative: it publishes a LOWER reservation than the live epoch,
// which TryAdvance treats as a reader in an older epoch — it can delay an
// advance but never permit one — and the re-check below then chases the
// live epoch before the section begins.
func (p *Participant) Enter() {
	p.depth++
	if p.depth > 1 {
		return
	}
	e := p.epoch
	p.n.AtomicStore64(p.d.resG[p.id], e+1)
	// Re-check: the epoch may have advanced between load and store; chase it
	// so our reservation never lags the global epoch at section start.
	for {
		cur := p.n.AtomicLoad64(p.d.epochG)
		if cur == e {
			break
		}
		e = cur
		p.n.AtomicStore64(p.d.resG[p.id], e+1)
	}
	p.epoch = e
}

// Exit ends a read-side critical section.
func (p *Participant) Exit() {
	if p.depth == 0 {
		panic("quiescence: Exit without Enter")
	}
	p.depth--
	if p.depth == 0 {
		p.n.AtomicStore64(p.d.resG[p.id], 0)
	}
}

// Pin is Enter under the name the checkpoint integration uses: a pinned
// epoch guarantees versions retired at or after it survive until Unpin.
func (p *Participant) Pin() { p.Enter() }

// Unpin releases a Pin.
func (p *Participant) Unpin() { p.Exit() }

// Retire schedules fn to run once no participant can still hold a
// reference obtained before this call (i.e. after two epoch advances).
func (p *Participant) Retire(fn func()) {
	e := p.n.AtomicLoad64(p.d.epochG)
	p.mu.Lock()
	p.retired = append(p.retired, retired{epoch: e, fn: fn})
	p.mu.Unlock()
}

// TryAdvance attempts to advance the global epoch. It succeeds only if
// every active participant has pinned the current epoch. Returns whether
// the epoch advanced. The epoch it loads (or moves to) refreshes the
// participant's cached epoch for its next Enter.
func (p *Participant) TryAdvance() bool {
	n, d := p.n, p.d
	e := n.AtomicLoad64(d.epochG)
	p.epoch = e
	for _, g := range d.resG {
		r := n.AtomicLoad64(g)
		if r != 0 && r != e+1 {
			return false // someone still reads in an older epoch
		}
	}
	if !n.CAS64(d.epochG, e, e+1) {
		return false
	}
	p.epoch = e + 1
	return true
}

// Fence clears participant id's reservation word on behalf of a crashed
// node, acting from live node n. A participant that dies inside a read
// section leaves its reservation pinned forever, which would stall epoch
// advance (and with it all reclamation) rack-wide; crash recovery fences
// the dead participant exactly like an expired lease. The fenced
// Participant object must never be used again — attach a fresh one.
func (d *Domain) Fence(n *fabric.Node, id int) {
	if id < 0 || id >= len(d.resG) {
		panic(fmt.Sprintf("quiescence: participant id %d out of range [0,%d)", id, len(d.resG)))
	}
	n.AtomicStore64(d.resG[id], 0)
}

// Collect runs every retired callback whose grace period has elapsed and
// returns how many ran.
func (p *Participant) Collect() int {
	cur := p.n.AtomicLoad64(p.d.epochG)
	p.mu.Lock()
	var ready []retired
	keep := p.retired[:0]
	for _, r := range p.retired {
		if cur >= r.epoch+2 {
			ready = append(ready, r)
		} else {
			keep = append(keep, r)
		}
	}
	p.retired = keep
	p.mu.Unlock()
	for _, r := range ready {
		r.fn()
	}
	return len(ready)
}

// Barrier advances epochs until everything retired before the call is
// reclaimable, then collects. It spins while other participants hold pins,
// so it must not be called from inside a read section.
func (p *Participant) Barrier() {
	if p.depth > 0 {
		panic("quiescence: Barrier inside read section would self-deadlock")
	}
	start := p.n.AtomicLoad64(p.d.epochG)
	for p.n.AtomicLoad64(p.d.epochG) < start+2 {
		if !p.TryAdvance() {
			runtime.Gosched()
		}
	}
	p.Collect()
}

// PendingRetired returns how many retirements await their grace period.
func (p *Participant) PendingRetired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.retired)
}
