package torture

import (
	"flacos/internal/redis"
)

// redisWorkload tortures the rack-shared Redis store (internal/redis
// RackStore): every node runs a rackClient writer over its own keys and
// a reader over everyone's keys, while the schedule driver crashes
// serving nodes mid-SET. These are the redisrack acceptance properties
// under faults. Nothing here fences a live view, so an ErrFenced SET
// fails the sweep.
type redisWorkload struct {
	rackClient
}

func newRedisWorkload() *redisWorkload {
	return &redisWorkload{rackClient{kpw: 4, writerRng: 0x50, writerCI: 0x500, readerRng: 0x60, readerCI: 0x600}}
}

func (w *redisWorkload) Name() string { return "redisrack" }

// Tolerates: the index and clocks are pure fabric atomics, but entry
// payloads are cached data pushed home by explicit write-backs — silent
// corruption and dropped write-backs legitimately destroy them, so those
// classes are out of contract (exactly like dsWorkload's ring payloads).
func (w *redisWorkload) Tolerates() FaultClass { return FaultCrash | FaultDegrade }

func (w *redisWorkload) Prepare(env *Env) {
	keys := env.Cfg.Nodes * w.kpw
	w.seed(env, redis.NewRackStore(env.Fab, redis.RackStoreConfig{
		Slots: uint64(keys) * 8,
		// Every crash abandons the victim node's views; size for the
		// worst-case reattach churn of the whole sweep.
		MaxViews:   2*env.Cfg.Nodes*(env.Cfg.Events+2) + 8,
		ArenaBytes: 16 << 20,
	}))
}

func (w *redisWorkload) Clients(env *Env) []func() {
	var out []func()
	for i := 0; i < env.Cfg.Nodes; i++ {
		node := i
		out = append(out,
			func() { w.writer(env, node) },
			func() { w.reader(env, node) },
		)
	}
	return out
}

// Check verifies the quiescent store.
func (w *redisWorkload) Check(env *Env) { w.checkFinal(env) }
