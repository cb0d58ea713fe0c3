package sched

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/flacdk/ds"
	"flacos/internal/memsys"
	"flacos/internal/metrics"
	"flacos/internal/trace"
)

// Func is a schedulable function. It runs on whichever node claims the
// task; all task state it touches must be reachable through its
// arguments (typically GPtrs into global memory). Functions are
// registered identically on every node — the scheduler's equivalent of
// §3.5's shared code contexts.
type Func func(n *fabric.Node, arg0, arg1 uint64)

// FuncID names a registered function in the shared code-context table.
type FuncID uint64

// LocalTask is a node-private task: it runs on its submission node's
// local run queue with zero global-memory traffic, and is NOT crash
// recoverable. Use Submit for anything that must survive its host.
type LocalTask func(n *fabric.Node)

// Task describes one crash-recoverable unit of work.
type Task struct {
	Fn   FuncID
	Arg0 uint64
	Arg1 uint64
	// Preferred is the locality hint: the node whose cache is warm with
	// the task's working set. Negative means "run anywhere".
	Preferred int
	// DoneCell, when non-nil, is a global-memory word the scheduler
	// increments exactly once when the task completes.
	DoneCell fabric.GPtr
}

// Handle identifies a submitted task for Wait.
type Handle struct {
	Slot uint64
	Gen  uint64
}

// Policy selects the placement strategy consulted at submission.
type Policy int

// Placement policies.
const (
	// PolicyLocality honors Task.Preferred unless that node's load
	// exceeds the rack minimum by more than LocalitySlack.
	PolicyLocality Policy = iota
	// PolicyLeastLoaded ignores locality and targets the least-loaded
	// live node (the density-style baseline).
	PolicyLeastLoaded
	// PolicyRandom places uniformly at random over live nodes (the
	// ablation baseline for the sched experiment).
	PolicyRandom
)

// Config sizes and tunes a Scheduler. Zero values get workable defaults.
type Config struct {
	// TableCap is the number of task slots in the global run queue.
	// Submit blocks (bounded-queue semantics) when all are in flight.
	TableCap uint64
	// InboxCap is the per-node announcement ring capacity.
	InboxCap uint64
	// WorkersPerNode is how many claiming goroutines each node runs.
	WorkersPerNode int
	// LocalQueueCap bounds each node's private LocalTask queue.
	LocalQueueCap int
	// Policy is the placement strategy.
	Policy Policy
	// LocalitySlack is how much extra load the preferred node may carry
	// before PolicyLocality spills the task to the least-loaded node.
	LocalitySlack uint64
	// ProbeRounds is how many consecutive keeper ticks a Running task's
	// owner heartbeat must stay frozen before its lease expires.
	ProbeRounds int
	// ReclaimTick is the keeper's heartbeat/probe period.
	ReclaimTick time.Duration
	// IdleTick is how long an idle worker waits before re-scanning for
	// stealable work.
	IdleTick time.Duration
	// StealGrace is how long a queued task with a live preferred node
	// is left for that node before other nodes may steal it; it keeps
	// momentary idleness elsewhere from defeating locality. Tasks whose
	// preferred node is down (or unset) are stealable immediately.
	StealGrace time.Duration
	// HistCap bounds the scheduler's latency histograms by reservoir
	// sampling (0 keeps exact samples; long-running schedulers should
	// cap — see metrics.Histogram.SetReservoir).
	HistCap int
	// Seed seeds PolicyRandom and the histogram reservoirs.
	Seed int64
}

// DefaultConfig returns the configuration core.Rack boots with.
func DefaultConfig() Config { return Config{} }

func (c *Config) fillDefaults() {
	if c.TableCap == 0 {
		c.TableCap = 1024
	}
	if c.InboxCap == 0 {
		c.InboxCap = 256
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 4
	}
	if c.LocalQueueCap == 0 {
		c.LocalQueueCap = 256
	}
	if c.LocalitySlack == 0 {
		c.LocalitySlack = 8
	}
	if c.ProbeRounds == 0 {
		c.ProbeRounds = 4
	}
	if c.ReclaimTick == 0 {
		c.ReclaimTick = 200 * time.Microsecond
	}
	if c.IdleTick == 0 {
		c.IdleTick = 500 * time.Microsecond
	}
	if c.StealGrace == 0 {
		c.StealGrace = 200 * time.Microsecond
	}
	if c.HistCap == 0 {
		c.HistCap = 16384
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Scheduler is the rack-wide coordinated task scheduler. One instance
// serves the whole rack; every node's OS boots workers into it.
type Scheduler struct {
	fab *fabric.Fabric
	cfg Config

	tableG  fabric.GPtr // task slots, one line each
	boardG  fabric.GPtr // per-node load + heartbeat lines
	ctrG    fabric.GPtr // submitted / completed / queued counters
	inboxes []*ds.MPSCRing

	fnMu sync.RWMutex
	fns  []Func

	localQ  []chan LocalTask
	inboxMu []sync.Mutex // node-private consumer locks
	notify  []chan struct{}
	parked  []atomic.Int32 // per node: workers blocked waiting for work

	// liveness is the membership layer's oracle (nil = crash checks
	// only); notServing gates a joining node's pull paths (see
	// membership.go in this package).
	liveness   atomic.Pointer[func(int) bool]
	notServing []atomic.Bool

	allocCursor atomic.Uint64
	stolen      atomic.Uint64
	reclaimed   atomic.Uint64
	localRun    atomic.Uint64
	localSub    atomic.Uint64
	localDone   atomic.Uint64

	// Per-node anomaly counters the health layer samples (see health.go
	// in this package): lease expiries are charged to the node whose
	// lease was reclaimed, claim-CAS losses to the node that lost the
	// claim. Host-side only — they cost the hot paths one atomic add.
	nodeLeaseExp  []atomic.Uint64
	nodeClaimFail []atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	hints hintTable // recent per-space placements (see hints.go)

	dispatch   *metrics.Histogram // submit -> first claim
	redispatch *metrics.Histogram // lease reclaim -> re-claim
	service    *metrics.Histogram // claim -> completion

	tr tracing // flight-recorder hooks (see trace.go)

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	wg       sync.WaitGroup
}

// New lays the scheduler's shared structures out in f's global memory.
// Call Register for every function, then Start.
func New(f *fabric.Fabric, cfg Config) *Scheduler {
	cfg.fillDefaults()
	if f.NumNodes() > 254 {
		panic("sched: at most 254 nodes (owner is a packed byte)")
	}
	s := &Scheduler{
		fab:        f,
		cfg:        cfg,
		tableG:     f.Reserve(cfg.TableCap*slotBytes, fabric.LineSize),
		boardG:     f.Reserve(uint64(f.NumNodes())*boardBytes, fabric.LineSize),
		ctrG:       f.Reserve(fabric.LineSize, fabric.LineSize),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		dispatch:   metrics.NewHistogram(),
		redispatch: metrics.NewHistogram(),
		service:    metrics.NewHistogram(),
		stop:       make(chan struct{}),
	}
	if cfg.HistCap > 0 {
		s.dispatch.SetReservoir(cfg.HistCap, cfg.Seed)
		s.redispatch.SetReservoir(cfg.HistCap, cfg.Seed+1)
		s.service.SetReservoir(cfg.HistCap, cfg.Seed+2)
	}
	nn := f.NumNodes()
	s.notServing = make([]atomic.Bool, nn)
	s.nodeLeaseExp = make([]atomic.Uint64, nn)
	s.nodeClaimFail = make([]atomic.Uint64, nn)
	s.tr.trw = make([]atomic.Pointer[trace.Writer], nn)
	s.inboxes = make([]*ds.MPSCRing, nn)
	s.localQ = make([]chan LocalTask, nn)
	s.inboxMu = make([]sync.Mutex, nn)
	s.notify = make([]chan struct{}, nn)
	s.parked = make([]atomic.Int32, nn)
	for i := 0; i < nn; i++ {
		s.inboxes[i] = ds.NewMPSCRing(f, f.Node(0), cfg.InboxCap, 8)
		s.localQ[i] = make(chan LocalTask, cfg.LocalQueueCap)
		s.notify[i] = make(chan struct{}, 1)
	}
	return s
}

// Register installs fn in the shared code-context table on every node
// and returns its id. Register before Start (ids must be stable before
// any worker can claim).
func (s *Scheduler) Register(fn Func) FuncID {
	s.fnMu.Lock()
	defer s.fnMu.Unlock()
	s.fns = append(s.fns, fn)
	return FuncID(len(s.fns) - 1)
}

func (s *Scheduler) fn(id uint64) Func {
	s.fnMu.RLock()
	defer s.fnMu.RUnlock()
	if id >= uint64(len(s.fns)) {
		panic(fmt.Sprintf("sched: unregistered function %d", id))
	}
	return s.fns[id]
}

// Start boots the per-node worker pools and keepers. Idempotent.
func (s *Scheduler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for id := 0; id < s.fab.NumNodes(); id++ {
		for w := 0; w < s.cfg.WorkersPerNode; w++ {
			s.wg.Add(1)
			go s.worker(id)
		}
		s.wg.Add(1)
		go s.keeper(id)
	}
}

// Stop shuts every worker and keeper down. In-flight tasks finish;
// queued tasks stay in the table (a future Start-like rebuild could
// resume them, as a real reboot would). Idempotent.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// RebootNode spawns a fresh worker pool and keeper for node id after a
// fabric.Node Restart. The node rejoins the rack under its original ID:
// its new keeper resumes advancing the same heartbeat word. Before that,
// it reclaims every task still Running under its ID: the pre-crash
// workers died holding those leases, and a restart that beats both the
// keepers' expiry probe and a membership Dead sweep would otherwise have
// the new keeper renew them forever. The attempt bump fences any
// pre-crash runner that is still executing, so a stale completion CAS
// cannot resurrect its task. Call only after the node has been restarted
// and only while the scheduler is running.
func (s *Scheduler) RebootNode(id int) {
	if !s.started.Load() {
		return
	}
	select {
	case <-s.stop:
		return
	default:
	}
	s.ReclaimNode(s.fab.Node(id), id)
	for w := 0; w < s.cfg.WorkersPerNode; w++ {
		s.wg.Add(1)
		go s.worker(id)
	}
	s.wg.Add(1)
	go s.keeper(id)
	s.wake(id)
}

// wake nudges node id's workers (the software stand-in for an IPI /
// mwait wakeup on a global doorbell word — see internal/irq).
func (s *Scheduler) wake(id int) {
	select {
	case s.notify[id] <- struct{}{}:
	default:
	}
}

// ParkedWorkers returns how many of node id's workers are blocked
// waiting for a doorbell, a local task or the idle tick. A caller that
// submits only once every worker of the target is parked makes each task
// reach its worker through the inbox announcement, never through a table
// scan that raced the submission.
func (s *Scheduler) ParkedWorkers(id int) int { return int(s.parked[id].Load()) }

// Submit places t on the global run queue from node `from` and returns
// a Handle for Wait. It blocks (bounded queue) while the table is full.
func (s *Scheduler) Submit(from *fabric.Node, t Task) Handle {
	pref := noPreference
	if t.Preferred >= 0 {
		if t.Preferred >= s.fab.NumNodes() {
			panic(fmt.Sprintf("sched: preferred node %d out of range", t.Preferred))
		}
		pref = t.Preferred
	}
	target := s.target(from, pref)
	slot, gen := s.allocSlot(from)
	from.AtomicStore64(s.fnG(slot), uint64(t.Fn))
	from.AtomicStore64(s.arg0G(slot), t.Arg0)
	from.AtomicStore64(s.arg1G(slot), t.Arg1)
	from.AtomicStore64(s.routeG(slot), packRoute(target, pref))
	from.AtomicStore64(s.enqG(slot), nowNS())
	from.AtomicStore64(s.cellG(slot), uint64(t.DoneCell))
	from.AtomicStore64(s.leaseG(slot), 0)
	// Account before publishing so the load board and queued counter
	// never under-read a claimable task.
	from.Add64(s.loadG(target), 1)
	from.Add64(s.queuedG(), 1)
	from.Add64(s.submittedG(), 1)
	from.AtomicStore64(s.stateG(slot), packState(gen, 0, 0, stQueued))
	s.announce(from, target, slot)
	return Handle{Slot: slot, Gen: gen}
}

// SubmitToSpace submits t preferring the node that owns sp's pages: the
// least-loaded node holding a live MMU attachment to the space (whose
// cache and local frames are warm with it). Any Preferred already set on
// t is overridden.
func (s *Scheduler) SubmitToSpace(from *fabric.Node, sp *memsys.Space, t Task) Handle {
	t.Preferred = -1
	best := ^uint64(0)
	for _, id := range sp.AttachedNodes() {
		if !s.placeable(id) {
			continue
		}
		if l := from.AtomicLoad64(s.loadG(id)); l < best {
			best, t.Preferred = l, id
		}
	}
	if t.Preferred >= 0 {
		s.noteSpacePlacement(sp.ID, t.Preferred)
	}
	return s.Submit(from, t)
}

// SubmitLocal runs fn on node id's private run queue: the hot path for
// node-local work, no global-memory traffic, no crash recovery.
func (s *Scheduler) SubmitLocal(id int, fn LocalTask) {
	s.localSub.Add(1)
	s.localQ[id] <- fn
	s.wake(id)
}

// allocSlot claims a Free slot (Init state) and returns it with the new
// generation. Spins with backoff while the table is full.
func (s *Scheduler) allocSlot(from *fabric.Node) (uint64, uint64) {
	for {
		start := s.allocCursor.Add(1)
		for k := uint64(0); k < s.cfg.TableCap; k++ {
			i := (start + k) % s.cfg.TableCap
			w := from.AtomicLoad64(s.stateG(i))
			if stState(w) != stFree {
				continue
			}
			gen := stGen(w) + 1
			if from.CAS64(s.stateG(i), w, packState(gen, 0, from.ID(), stInit)) {
				return i, gen
			}
		}
		runtime.Gosched()
	}
}

// announce posts slot to node target's inbox ring and rings its
// doorbell. Best effort: if the ring is full the task is still found by
// table scans, which is what correctness rests on.
func (s *Scheduler) announce(from *fabric.Node, target int, slot uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], slot)
	s.inboxes[target].TryPush(from, b[:])
	s.wake(target)
}

// target applies the placement policy over the load board.
func (s *Scheduler) target(from *fabric.Node, pref int) int {
	nn := s.fab.NumNodes()
	switch s.cfg.Policy {
	case PolicyRandom:
		s.rngMu.Lock()
		defer s.rngMu.Unlock()
		for tries := 0; tries < 4*nn; tries++ {
			if id := s.rng.Intn(nn); s.placeable(id) {
				return id
			}
		}
		return from.ID()
	}
	best, bestLoad := -1, ^uint64(0)
	var prefLoad uint64
	prefAlive := false
	for id := 0; id < nn; id++ {
		if !s.placeable(id) {
			continue
		}
		l := from.AtomicLoad64(s.loadG(id))
		if l < bestLoad {
			best, bestLoad = id, l
		}
		if id == pref {
			prefLoad, prefAlive = l, true
		}
	}
	if best < 0 {
		return from.ID() // every node down: caller is about to find out
	}
	if s.cfg.Policy == PolicyLocality && pref != noPreference && prefAlive &&
		prefLoad <= bestLoad+s.cfg.LocalitySlack {
		return pref
	}
	return best
}

// Wait blocks until h's task completes (its slot generation advances).
// It returns false if the scheduler stops first.
func (s *Scheduler) Wait(n *fabric.Node, h Handle) bool {
	for i := 0; ; i++ {
		if stGen(n.AtomicLoad64(s.stateG(h.Slot))) > h.Gen {
			return true
		}
		select {
		case <-s.stop:
			return false
		default:
		}
		if i%64 == 63 {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// Drain blocks until every submitted task (global and local) has
// completed. It returns false if the scheduler stops first.
func (s *Scheduler) Drain(n *fabric.Node) bool {
	for i := 0; ; i++ {
		if n.AtomicLoad64(s.submittedG()) == n.AtomicLoad64(s.completedG()) &&
			s.localSub.Load() == s.localDone.Load() {
			return true
		}
		select {
		case <-s.stop:
			return false
		default:
		}
		if i%16 == 15 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// Loads returns the load board as seen by node n: per node, the count of
// tasks queued for or running on it.
func (s *Scheduler) Loads(n *fabric.Node) []uint64 {
	out := make([]uint64, s.fab.NumNodes())
	for i := range out {
		out[i] = n.AtomicLoad64(s.loadG(i))
	}
	return out
}

// PickNode scores each live node as density[i] + scheduler load and
// returns the lowest. It is the placement hook serverless.Controller
// routes pickNode through (SetPlacer), so container placement and task
// placement share one load board.
func (s *Scheduler) PickNode(density []int) int {
	n := s.anyAlive()
	best, bestScore := -1, ^uint64(0)
	for id := 0; id < s.fab.NumNodes() && id < len(density); id++ {
		if !s.placeable(id) {
			continue
		}
		score := uint64(density[id])
		if n != nil {
			score += n.AtomicLoad64(s.loadG(id))
		}
		if score < bestScore {
			best, bestScore = id, score
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func (s *Scheduler) anyAlive() *fabric.Node {
	for i := 0; i < s.fab.NumNodes(); i++ {
		if n := s.fab.Node(i); !n.Crashed() {
			return n
		}
	}
	return nil
}

// Stats is a snapshot of scheduler activity.
type Stats struct {
	Submitted uint64 // global tasks submitted
	Completed uint64 // global tasks completed (exactly-once)
	Queued    uint64 // currently claimable
	Stolen    uint64 // claims by a node other than the assigned one
	Reclaimed uint64 // lease expiries (crash re-dispatch)
	LocalRun  uint64 // node-private LocalTasks executed
}

// StatsFrom reads the counters through node n.
func (s *Scheduler) StatsFrom(n *fabric.Node) Stats {
	return Stats{
		Submitted: n.AtomicLoad64(s.submittedG()),
		Completed: n.AtomicLoad64(s.completedG()),
		Queued:    n.AtomicLoad64(s.queuedG()),
		Stolen:    s.stolen.Load(),
		Reclaimed: s.reclaimed.Load(),
		LocalRun:  s.localRun.Load(),
	}
}

// DispatchHist is the submit->claim latency histogram (first attempts).
func (s *Scheduler) DispatchHist() *metrics.Histogram { return s.dispatch }

// RedispatchHist is the reclaim->re-claim latency histogram (tasks
// re-dispatched after their owner's lease expired).
func (s *Scheduler) RedispatchHist() *metrics.Histogram { return s.redispatch }

// ServiceHist is the claim->completion latency histogram.
func (s *Scheduler) ServiceHist() *metrics.Histogram { return s.service }
