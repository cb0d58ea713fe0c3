package torture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"flacos/internal/fabric"
	"flacos/internal/redis"
)

// rackClient is the RackStore client harness the redisrack, membership
// and health workloads embed: every node runs a single-writer SET stream
// over its own keys, readers GET everyone's keys, and the checkers hold
// the store to these invariants under crashes and fences:
//
//   - A GET never returns a TORN value: entry blocks are written back
//     before the index publish, so a crash between the two leaves the
//     previous intact value in place.
//   - A GET never goes BACKWARDS: it carries a sequence >= the highest
//     flush-acknowledged write for that key (the host-side committed
//     floor).
//   - Keys never vanish, and the quiescent store holds exactly each
//     writer's last committed value.
//
// A writer whose node crashed mid-SET cannot know whether the publish
// landed, so it re-reads the key and adopts whichever of {committed,
// attempted} sequence it finds. Crashed views are fenced (their epoch
// reservation cleared on their behalf) and abandoned; the replacement
// is a fresh Attach under the current fence level.
type rackClient struct {
	store    *redis.RackStore
	kpw      int             // keys per writer (per node)
	floors   []atomic.Uint64 // per key: committed (flush-acknowledged) seq
	finalVer []uint64        // per key: writer's final committed seq

	// fenceable: the workload's Dead sweep or drain fences live views,
	// so an ErrFenced SET means "nothing applied, reattach and retry".
	// Elsewhere nothing fences a live view and ErrFenced is a bug.
	fenceable bool

	// Per-workload rng stream salts and client ids (keeping them fixed
	// keeps seeded runs replaying identically): node n's writer draws
	// from stream writerRng+n and reports as client writerCI+n, and a
	// reader on node n likewise uses readerRng+n and readerCI+n.
	writerRng, readerRng uint64
	writerCI, readerCI   int
}

const redisValBytes = 40 // 8-byte seq + 32 pattern bytes

func redisKey(node, j int) string { return fmt.Sprintf("rk-%d-%d", node, j) }

func redisVal(keyIdx int, seq uint64) []byte {
	v := make([]byte, redisValBytes)
	binary.LittleEndian.PutUint64(v, seq)
	for i := 8; i < redisValBytes; i++ {
		v[i] = byte(seq*13 + uint64(keyIdx)*7 + uint64(i))
	}
	return v
}

// redisDecode returns the sequence a value carries and whether every
// byte matches the pattern for it (false = torn or corrupt).
func redisDecode(keyIdx int, v []byte) (seq uint64, intact bool) {
	if len(v) != redisValBytes {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(v)
	for i := 8; i < redisValBytes; i++ {
		if v[i] != byte(seq*13+uint64(keyIdx)*7+uint64(i)) {
			return seq, false
		}
	}
	return seq, true
}

// key names key index k: writer k/kpw's (k%kpw)th key.
func (c *rackClient) key(k int) string { return redisKey(k/c.kpw, k%c.kpw) }

// seed adopts store and writes every node's keys at sequence 1 from
// node 0, so readers never see a missing key.
func (c *rackClient) seed(env *Env, store *redis.RackStore) {
	c.store = store
	keys := env.Cfg.Nodes * c.kpw
	c.floors = make([]atomic.Uint64, keys)
	c.finalVer = make([]uint64, keys)
	v0 := c.attach(env, env.Fab.Node(0))
	for k := 0; k < keys; k++ {
		if err := v0.Set(c.key(k), redisVal(k, 1), 0); err != nil {
			panic(err)
		}
		c.floors[k].Store(1)
	}
	v0.Barrier()
}

// attach creates a view with the flight recorder wired in (SET/GET spans
// land in failing sweeps' timelines).
func (c *rackClient) attach(env *Env, n *fabric.Node) *redis.View {
	v := c.store.Attach(n)
	if env.Trace != nil {
		v.SetTrace(env.Trace.Writer(n.ID()))
	}
	return v
}

// attachLoop attaches on n, riding out crashes that land before or
// during the attach itself (the fault driver does not wait for clients
// to reach a safe point).
func (c *rackClient) attachLoop(env *Env, n *fabric.Node) *redis.View {
	for {
		var v *redis.View
		if env.RunOp(n, func() { v = c.attach(env, n) }) {
			return v
		}
		env.WaitAlive(n)
	}
}

// reattach abandons a view whose node crashed: wait for the restart,
// fence the dead view from node 0 (never crashed, so the fence cannot
// itself die midway; a Dead sweep may also have fenced it, but a
// restart can beat detection) and attach fresh.
func (c *rackClient) reattach(env *Env, n *fabric.Node, dead *redis.View) *redis.View {
	env.WaitAlive(n)
	c.store.FenceView(env.Fab.Node(0), dead.ID())
	return c.attachLoop(env, n)
}

// writer owns keys [node*kpw, node*kpw+kpw) and SETs strictly increasing
// sequences. A crash mid-SET makes the applied sequence uncertain, so it
// resyncs with a GET before continuing. A fenced SET never applied, so
// in a fenceable workload the writer reattaches and retries.
func (c *rackClient) writer(env *Env, node int) {
	n := env.Fab.Node(node)
	v := c.attachLoop(env, n)
	rng := env.Rand(c.writerRng + uint64(node))
	ci := c.writerCI + node
	vers := make([]uint64, c.kpw)
	needSync := make([]bool, c.kpw)
	for j := range vers {
		vers[j] = 1
	}
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		j := rng.Intn(c.kpw)
		keyIdx := node*c.kpw + j
		key := redisKey(node, j)
		if needSync[j] {
			var val []byte
			var ok bool
			if !env.RunOp(n, func() { val, ok = v.Get(key) }) {
				v = c.reattach(env, n, v)
				continue
			}
			seq, intact := uint64(0), false
			if ok {
				seq, intact = redisDecode(keyIdx, val)
			}
			if !ok || !intact || seq < vers[j] || seq > vers[j]+1 {
				env.Violatef(ci, "key %s: resync read seq=%d ok=%v intact=%v, committed=%d", key, seq, ok, intact, vers[j])
				seq = vers[j]
			}
			vers[j] = seq
			c.floors[keyIdx].Store(seq)
			needSync[j] = false
		}
		next := vers[j] + 1
		fenced := false
		if !env.RunOp(n, func() {
			if err := v.Set(key, redisVal(keyIdx, next), 0); err != nil {
				if c.fenceable && errors.Is(err, redis.ErrFenced) {
					fenced = true
					return
				}
				panic(err)
			}
		}) {
			// Crashed mid-SET: the publish either landed or it didn't.
			needSync[j] = true
			v = c.reattach(env, n, v)
			continue
		}
		if fenced {
			// The view carried a generation the rack fenced (a Dead
			// sweep, or a drain's early fence). Nothing applied: attach
			// fresh under the current fence level and retry.
			v = c.attachLoop(env, n)
			continue
		}
		vers[j] = next
		c.floors[keyIdx].Store(next)
		completed++
		env.OpDone()
	}
	for j := range vers {
		c.finalVer[node*c.kpw+j] = vers[j]
	}
}

// reader GETs random keys rack-wide from node and checks every
// observation is intact and not behind the committed floor loaded
// before the read.
func (c *rackClient) reader(env *Env, node int) {
	n := env.Fab.Node(node)
	v := c.attachLoop(env, n)
	rng := env.Rand(c.readerRng + uint64(node))
	ci := c.readerCI + node
	keys := len(c.floors)
	for completed := 0; completed < env.Cfg.OpsPerClient; {
		keyIdx := rng.Intn(keys)
		key := c.key(keyIdx)
		f0 := c.floors[keyIdx].Load()
		var val []byte
		var ok bool
		if !env.RunOp(n, func() { val, ok = v.Get(key) }) {
			v = c.reattach(env, n, v)
			continue
		}
		if !ok {
			env.Violatef(ci, "key %s: vanished (committed floor %d)", key, f0)
		} else if seq, intact := redisDecode(keyIdx, val); !intact {
			env.Violatef(ci, "key %s: torn value (carries seq %d)", key, seq)
		} else if seq < f0 {
			env.Violatef(ci, "key %s: went backwards: read seq %d after committed %d", key, seq, f0)
		}
		completed++
		env.OpDone()
	}
}

// checkFinal verifies the quiescent store from node 0: every key holds
// exactly its writer's final committed value, intact.
func (c *rackClient) checkFinal(env *Env) {
	v0 := c.attach(env, env.Fab.Node(0))
	for k, want := range c.finalVer {
		if want == 0 {
			// The writer never finished: a hot-plug that bailed, or a
			// client panic. Both are recorded violations already.
			continue
		}
		key := c.key(k)
		val, ok := v0.Get(key)
		if !ok {
			env.Violatef(-1, "final state: key %s missing, want seq %d", key, want)
			continue
		}
		seq, intact := redisDecode(k, val)
		if !intact || seq != want {
			env.Violatef(-1, "final state: key %s seq=%d intact=%v, want %d", key, seq, intact, want)
		}
	}
	v0.Barrier()
}
