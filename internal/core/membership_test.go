package core

import (
	"errors"
	"testing"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/membership"
	"flacos/internal/redis"
	"flacos/internal/serverless"
	"flacos/internal/trace"
)

func fastMembership() membership.Config {
	return membership.Config{
		HeartbeatTick: 100 * time.Microsecond,
		DeadStrikes:   2,
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// One crash, one detection, recovery everywhere: the membership Dead
// event must fence the dead node's redis views, move its serverless
// containers, steer placement away from it, and land the whole story in
// the flight-recorder timeline.
func TestMembershipDeadDrivesRecoveryEverywhere(t *testing.T) {
	r := Boot(Config{Nodes: 3, GlobalMemory: 192 << 20, PageCacheFrames: 8192})
	defer r.Shutdown()
	rec := r.EnableTrace(trace.Config{})
	store := r.RedisStore()

	reg := serverless.NewRegistry(1_000_000, 1.0)
	reg.Push(serverless.SyntheticImage("app", 2, 1<<20))
	ctl := r.Serverless(reg, serverless.DefaultRuntimeConfig())
	if _, err := ctl.Deploy("fn", "app", func(n *fabric.Node, req []byte) []byte { return req }); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.ScaleUpOn("fn", 2); err != nil {
		t.Fatal(err)
	}

	tb := r.EnableMembership(fastMembership())
	if tb != r.Membership() {
		t.Fatal("Membership() does not return the enabled table")
	}
	waitUntil(t, "boot population alive", func() bool {
		return tb.Alive(0) && tb.Alive(1) && tb.Alive(2)
	})

	// Node 2 serves redis under its boot generation (1).
	zombieView := store.AttachGen(r.Fabric.Node(2), 1)
	if err := zombieView.Set("k", []byte("committed"), 0); err != nil {
		t.Fatal(err)
	}

	r.Fabric.Node(2).Crash()
	waitUntil(t, "node 2 declared dead", func() bool { return !tb.Alive(2) })
	// Recovery runs on the first observer's agent; give its effects a
	// beat to land, observing each one.
	waitUntil(t, "serverless eviction", func() bool { return ctl.Density()[2] == 0 })
	// EvictNode drops the dead node's instance before it cold-starts the
	// replacement, so the re-placement lands after the eviction.
	waitUntil(t, "evicted container re-placed on a live node", func() bool {
		d := ctl.Density()
		return d[0]+d[1] > 0
	})

	// Placement never chooses the dead node.
	if got := r.Scheduler().PickNode([]int{0, 0, 0}); got == 2 {
		t.Fatal("PickNode chose the dead node")
	}

	// The restarted node's pre-death view is fenced (the zombie scenario:
	// the fabric node is back, but its old generation must not write).
	r.Fabric.Node(2).Restart()
	waitUntil(t, "redis fence", func() bool {
		return errors.Is(zombieView.Set("k", []byte("zombie"), 0), redis.ErrFenced)
	})
	if v, ok := store.AttachGen(r.Fabric.Node(0), 1).Get("k"); !ok || string(v) != "committed" {
		t.Fatalf("Get(k) = %q, %v; want the committed value intact", v, ok)
	}

	// The flight recorder holds the timeline: a membership dead event and
	// the store's view fence.
	rt := rec.Collector().Snapshot(r.Fabric.Node(0), false)
	var sawDead, sawFence bool
	for _, e := range rt.Events {
		if e.Sub == trace.SubMembership && e.Kind == trace.KDead && e.Arg1 == 2 {
			sawDead = true
		}
		if e.Sub == trace.SubRedis && e.Kind == trace.KViewFence && e.Arg0 == 2 {
			sawFence = true
		}
	}
	if !sawDead || !sawFence {
		t.Fatalf("timeline missing recovery events: dead=%v viewFence=%v", sawDead, sawFence)
	}
}
