package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"flacos/internal/core"
	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/loadgen"
	"flacos/internal/redis"
)

// kvSpec defines one Redis-over-IPC workload: the Fig 4 topology with two
// serving nodes running redis.Server over views of the rack-shared store
// and two client nodes, each holding one ipc connection to one server.
type kvSpec struct {
	keys       int     // value keyspace, preloaded during setup
	counters   int     // INCRBY keyspace, preloaded with "0"
	valueBytes int     // SET payload size
	zipfS      float64 // key popularity skew; 0 is uniform
	// Command mix in percent; the four add up to 100.
	getPct, setPct, incrPct, delPct int
	// opsPerSecond sets the run length: one run issues opsPerSecond
	// requests per --seconds. It is a fixed count, not a host-time
	// budget, so the virtual-clock results repeat exactly.
	opsPerSecond int
	warmOps      int // requests replayed during setup
	// refRate is the fixed offered rate (requests per virtual second) at
	// which the sojourn percentiles are reported, and p99LimitNS the
	// fixed sojourn limit that defines capacity on ladder. Both were set
	// once from this workload's unloaded service times: the rate at about
	// 0.7x saturation, the limit at about 4x the unloaded p99.
	refRate    float64
	p99LimitNS float64
	ladder     ladder
}

const (
	kvServers = 2
	kvNodes   = 2 * kvServers // servers 0..1, clients 2..3
	// kvMsgMax is the switchboard's default message size, left at its
	// default: ring pops invalidate a whole slot, so a larger slot would
	// cost host time on every request.
	kvMsgMax = 16 << 10
)

// kvConn is one client connection with its server session. Client and
// server run in the benchmark's single driver goroutine in lockstep, so no
// Recv ever waits for a message that has not been sent.
type kvConn struct {
	cl     *redis.Client
	srv    *redis.Server
	view   *redis.View
	sconn  tracedConn
	server *fabric.Node
	client *fabric.Node
	sbuf   []byte
	sout   []byte
}

// tracedConn wraps an ipc connection so the client's FlushSend and
// FlushRecv show the transport as child spans.
type tracedConn struct {
	c  *ipc.Conn
	n  *fabric.Node
	tr *tracer
}

func (t tracedConn) Send(msg []byte) error {
	t.tr.begin(spIPCSend, t.n)
	err := t.c.Send(msg)
	t.tr.end(len(msg))
	return err
}

func (t tracedConn) Recv(buf []byte) (int, error) {
	t.tr.begin(spIPCRecv, t.n)
	n, err := t.c.Recv(buf)
	t.tr.end(n)
	return n, err
}

func (t tracedConn) Close() { t.c.Close() }

// kvOp is one generated request.
type kvOp struct {
	kind  byte // 'G', 'S', 'I' (INCRBY) or 'D'
	conn  uint8
	key   int32 // index into the value keys, or the counters for 'I'
	delta int32
}

// kvModel is the benchmark's serial model of the keyspace. Every value
// encodes its key and version, so a stale, torn, foreign or backwards
// GET fails the byte comparison.
type kvModel struct {
	ver      []uint64 // current version per key, 0 when deleted
	last     []uint64 // highest version ever written per key
	counters []int64
	size     int
	keyNames [][]byte
	ctrNames [][]byte
	scratch  []byte
}

func newKVModel(s kvSpec) *kvModel {
	m := &kvModel{
		ver:      make([]uint64, s.keys),
		last:     make([]uint64, s.keys),
		counters: make([]int64, s.counters),
		size:     s.valueBytes,
		keyNames: make([][]byte, s.keys),
		ctrNames: make([][]byte, s.counters),
		scratch:  make([]byte, s.valueBytes),
	}
	for i := range m.keyNames {
		m.keyNames[i] = []byte(fmt.Sprintf("key:%07d", i))
	}
	for i := range m.ctrNames {
		m.ctrNames[i] = []byte(fmt.Sprintf("ctr:%05d", i))
	}
	return m
}

// value renders key's payload at version ver into dst.
func (m *kvModel) value(dst []byte, key int, ver uint64) []byte {
	dst = dst[:m.size]
	binary.LittleEndian.PutUint32(dst, uint32(key))
	binary.LittleEndian.PutUint64(dst[4:], ver)
	x := uint64(key)<<40 ^ ver
	for i := 12; i < len(dst); i++ {
		if i%8 == 4 {
			x = splitmix(x)
		}
		dst[i] = byte(x >> (8 * (i % 8)))
	}
	return dst
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// kvRig is one booted rack with its two connections, preloaded.
type kvRig struct {
	rack  *core.Rack
	conns [kvServers]*kvConn
	model *kvModel
	tr    *tracer
}

// setupKV boots the rack, connects the clients, preloads the keyspace and
// replays warmOps requests, so the measured phase starts warm.
func setupKV(s kvSpec, seed uint64, tr *tracer, corrupt bool) (*kvRig, checker, error) {
	rack := core.Boot(core.Config{
		Nodes:        kvNodes,
		GlobalMemory: 64 << 20,
		// Unbounded node caches: a bounded cache evicts in Go map order,
		// which would make miss counts differ from run to run.
		CacheCapacityLines: -1,
		IPC:                ipc.Config{MaxConns: 4, MaxListeners: 4, MsgMax: kvMsgMax},
		RedisSlots:         uint64(4 * (s.keys + s.counters)),
	})
	rig := &kvRig{rack: rack, model: newKVModel(s), tr: tr}
	for i := range rig.conns {
		c, err := connectKV(rack, i, kvMsgMax, tr)
		if err != nil {
			return nil, checker{}, err
		}
		rig.conns[i] = c
	}
	var chk checker
	chk.corrupt = corrupt
	preload := make([]kvOp, 0, s.keys+s.counters)
	for k := 0; k < s.keys; k++ {
		preload = append(preload, kvOp{kind: 'S', conn: uint8(k % kvServers), key: int32(k)})
	}
	for k := 0; k < s.counters; k++ {
		preload = append(preload, kvOp{kind: 'I', conn: uint8(k % kvServers), key: int32(k)})
	}
	// Preload pipelines as many SETs per round trip as fit one message.
	pipe := (kvMsgMax - 1024) / (s.valueBytes + 64)
	for lo := 0; lo < len(preload); lo += pipe {
		if err := rig.batch(preload[lo:min(lo+pipe, len(preload))], &chk); err != nil {
			return nil, checker{}, err
		}
	}
	for _, op := range genKV(s, seed^0x5eed_0f_3a7a, s.warmOps) {
		if _, err := rig.do(op, &chk); err != nil {
			return nil, checker{}, err
		}
	}
	return rig, chk, nil
}

func connectKV(rack *core.Rack, i, bufSize int, tr *tracer) (*kvConn, error) {
	srvOS, cliOS := rack.OS(i), rack.OS(kvServers+i)
	name := "perfbench-kv-" + strconv.Itoa(i)
	l, err := srvOS.Endpoint.Bind(name)
	if err != nil {
		return nil, err
	}
	var sconn *ipc.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sconn = l.Accept() }()
	cconn, err := cliOS.Endpoint.Connect(name)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	view := srvOS.RedisView()
	return &kvConn{
		cl:     redis.NewClient(tracedConn{c: cconn, n: cliOS.Node, tr: tr}, bufSize),
		srv:    redis.NewServer(view),
		view:   view,
		sconn:  tracedConn{c: sconn, n: srvOS.Node, tr: tr},
		server: srvOS.Node,
		client: cliOS.Node,
		sbuf:   make([]byte, bufSize),
	}, nil
}

// genKV draws n requests from the workload's seeded streams.
func genKV(s kvSpec, seed uint64, n int) []kvOp {
	r := loadgen.NewRand(seed)
	var zipf *loadgen.Zipf
	var perm []int32
	if s.zipfS > 0 {
		zipf = loadgen.NewZipf(loadgen.NewRand(seed^0x21bf), s.keys, s.zipfS)
		// A seeded rank->key permutation, so the hot keys differ per seed.
		perm = make([]int32, s.keys)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	ops := make([]kvOp, n)
	for i := range ops {
		op := kvOp{conn: uint8(r.Intn(kvServers))}
		switch p := r.Intn(100); {
		case p < s.getPct:
			op.kind = 'G'
		case p < s.getPct+s.setPct:
			op.kind = 'S'
		case p < s.getPct+s.setPct+s.incrPct:
			op.kind = 'I'
		default:
			op.kind = 'D'
		}
		switch {
		case op.kind == 'I':
			op.key = int32(r.Intn(s.counters))
			op.delta = int32(r.Intn(1000)) + 1
		case zipf != nil:
			op.key = perm[zipf.Next()]
		default:
			op.key = int32(r.Intn(s.keys))
		}
		ops[i] = op
	}
	return ops
}

// checker counts requests whose reply disagrees with the serial model.
type checker struct {
	failed  int
	kinds   map[string]int
	corrupt bool // self-test: damage the first value the checker reads
}

func (c *checker) fail(kind string) {
	c.failed++
	if c.kinds == nil {
		c.kinds = map[string]int{}
	}
	c.kinds[kind]++
}

func (c *checker) damage(b []byte) {
	if c.corrupt && len(b) > 0 {
		b[len(b)-1] ^= 0x40
		c.corrupt = false
	}
}

func (c *checker) summary() string {
	if c.failed == 0 {
		return "none"
	}
	keys := make([]string, 0, len(c.kinds))
	for k := range c.kinds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, c.kinds[k])
	}
	return b.String()
}

// queue appends op's command to its client's pipeline, updating the model
// with the command's effect, and returns the reply the model expects.
func (rig *kvRig) queue(op kvOp) expect {
	m := rig.model
	c := rig.conns[op.conn]
	rig.tr.begin(spClientPipe, c.client)
	defer rig.tr.end(0)
	switch op.kind {
	case 'G':
		c.cl.PipeCommand([]byte("GET"), m.keyNames[op.key])
		return expect{kind: 'G', key: int(op.key), ver: m.ver[op.key]}
	case 'S':
		m.last[op.key]++
		m.ver[op.key] = m.last[op.key]
		c.cl.PipeCommand([]byte("SET"), m.keyNames[op.key], m.value(m.scratch, int(op.key), m.ver[op.key]))
		return expect{kind: 'S'}
	case 'I':
		m.counters[op.key] += int64(op.delta)
		c.cl.PipeCommand([]byte("INCRBY"), m.ctrNames[op.key], strconv.AppendInt(nil, int64(op.delta), 10))
		return expect{kind: 'I', n: m.counters[op.key]}
	default:
		existed := m.ver[op.key] != 0
		m.ver[op.key] = 0
		c.cl.PipeCommand([]byte("DEL"), m.keyNames[op.key])
		return expect{kind: 'D', n: b2i(existed)}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// expect is the reply the serial model predicts for one command.
type expect struct {
	kind byte
	key  int
	ver  uint64
	n    int64
}

// check compares one reply with the model's prediction.
func (rig *kvRig) check(e expect, v redis.Value, chk *checker) (hit bool) {
	switch e.kind {
	case 'S':
		if v.IsError() || v.Str != "OK" {
			chk.fail("set-reply")
		}
	case 'I':
		if v.IsError() || v.Int != e.n {
			chk.fail("incrby-reply")
		}
	case 'D':
		if v.IsError() || v.Int != e.n {
			chk.fail("del-reply")
		}
	case 'G':
		if v.Bulk != nil {
			chk.damage(v.Bulk)
		}
		switch {
		case v.IsError():
			chk.fail("get-error")
		case e.ver == 0 && v.Bulk != nil:
			chk.fail("get-resurrected")
		case e.ver != 0 && v.Bulk == nil:
			chk.fail("get-lost")
		case e.ver != 0 && !bytes.Equal(v.Bulk, rig.model.value(rig.model.scratch, e.key, e.ver)):
			chk.fail(classifyGet(v.Bulk, e, rig.model))
		}
		return v.Bulk != nil
	}
	return false
}

// classifyGet names what is wrong with a GET payload that is not the
// model's current value.
func classifyGet(got []byte, e expect, m *kvModel) string {
	if len(got) != m.size || int(binary.LittleEndian.Uint32(got)) != e.key {
		return "get-foreign"
	}
	ver := binary.LittleEndian.Uint64(got[4:])
	if ver == 0 || ver > m.last[e.key] || !bytes.Equal(got, m.value(make([]byte, m.size), e.key, ver)) {
		return "get-torn"
	}
	return "get-stale"
}

// batch sends ops (all on one connection or spread over both) as one
// pipelined round trip per connection and checks every reply.
func (rig *kvRig) batch(ops []kvOp, chk *checker) error {
	var want [kvServers][]expect
	for _, op := range ops {
		want[op.conn] = append(want[op.conn], rig.queue(op))
	}
	for i, c := range rig.conns {
		if len(want[i]) == 0 {
			continue
		}
		replies, err := rig.roundTrip(c)
		if err != nil {
			return err
		}
		for j, e := range want[i] {
			rig.check(e, replies[j], chk)
		}
	}
	return nil
}

// roundTrip moves one queued pipeline: client FlushSend, server Recv,
// ExecuteBatch and Send, client FlushRecv.
func (rig *kvRig) roundTrip(c *kvConn) ([]redis.Value, error) {
	tr := rig.tr
	tr.begin(spClientFlushSend, c.client)
	n, err := c.cl.FlushSend()
	tr.end(0)
	if err != nil {
		return nil, fmt.Errorf("client flush send: %w", err)
	}
	m, err := c.sconn.Recv(c.sbuf)
	if err != nil {
		return nil, fmt.Errorf("server recv: %w", err)
	}
	tr.begin(spRedisExec, c.server)
	c.sout = c.srv.ExecuteBatch(c.sout[:0], c.sbuf[:m])
	tr.end(0)
	if err := c.sconn.Send(c.sout); err != nil {
		return nil, fmt.Errorf("server send: %w", err)
	}
	tr.begin(spClientFlushRecv, c.client)
	replies, err := c.cl.FlushRecv(n)
	tr.end(0)
	if err != nil {
		return nil, fmt.Errorf("client flush recv: %w", err)
	}
	return replies, nil
}

// do runs one single-command request and checks its reply.
func (rig *kvRig) do(op kvOp, chk *checker) (hit bool, err error) {
	e := rig.queue(op)
	replies, err := rig.roundTrip(rig.conns[op.conn])
	if err != nil {
		return false, err
	}
	return rig.check(e, replies[0], chk), nil
}

// runKV is the measured phase of a kv workload.
func runKV(s kvSpec, cfg runCfg, tr *tracer) (*result, error) {
	// Set up several times and keep the last rack, so setup_s is a median.
	var setups []float64
	var rig *kvRig
	var chk checker
	warmAttempted, warmFailed := 0, 0
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		r, c, err := setupKV(s, cfg.seed, tr, cfg.corrupt)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rig != nil {
			rig.rack.Shutdown()
			warmFailed += chk.failed
		}
		rig, chk = r, c
		warmAttempted += s.keys + s.counters + s.warmOps
	}
	defer rig.rack.Shutdown()

	n := max(1, int(float64(s.opsPerSecond)*cfg.scale))
	ops := genKV(s, cfg.seed, n)
	sched := newDigest()
	for _, op := range ops {
		sched.u64(uint64(op.kind), uint64(op.conn), uint64(op.key), uint64(op.delta))
	}

	f := rig.rack.Fabric
	service := make([]uint64, n)
	server := make([]int, n)
	var serverNS, clientNS uint64
	var gets, getHits int
	allocs0, frees0 := rig.allocStats()
	stats0 := nodeStats(f)
	var mem hostMem
	mem.start()
	const chunks = 64
	chunkRates := make([]float64, 0, chunks)
	tr.start()
	start := time.Now()
	chunkStart, chunkFrom := start, 0
	for i, op := range ops {
		c := rig.conns[op.conn]
		tr.request(i)
		tr.begin(spRequest, nil)
		s0, c0, r0 := c.server.VirtualNS(), c.client.VirtualNS(), rackVirtual(f)
		hit, err := rig.do(op, &chk)
		s1, c1, r1 := c.server.VirtualNS(), c.client.VirtualNS(), rackVirtual(f)
		tr.end(0)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		service[i], server[i] = r1-r0, int(op.conn)
		serverNS += s1 - s0
		clientNS += c1 - c0
		if op.kind == 'G' {
			gets++
			if hit {
				getHits++
			}
		}
		if (i+1)*chunks/n != i*chunks/n || i == n-1 {
			now := time.Now()
			if k := i + 1 - chunkFrom; k > 0 {
				chunkRates = append(chunkRates, float64(k)/now.Sub(chunkStart).Seconds())
			}
			chunkStart, chunkFrom = now, i+1
		}
	}
	hostNS := time.Since(start).Nanoseconds()
	mem.stop()
	fab := statsDelta(nodeStats(f), stats0)
	allocs1, frees1 := rig.allocStats()

	sim := newDigest()
	sim.u64(service...)
	sim.stats(fab)
	sim.u64(serverNS, clientNS, uint64(gets), uint64(getHits), allocs1-allocs0, frees1-frees0)

	ol := openLoop{service: service, server: server, servers: kvServers, seed: cfg.seed ^ 0xa77c1}
	_, soj := ol.at(s.refRate)
	unloaded := histogram(service)
	total := sumStats(fab)
	res := &result{
		attempted:   n + warmAttempted,
		failed:      chk.failed + warmFailed,
		hostNSPerOp: float64(hostNS) / float64(n),
		e2e: map[string]float64{
			"setup_s":             median(setups),
			"host_ops_per_s":      median(chunkRates),
			"host_heap_mb":        heapMB(rig),
			"virt_p50_us":         soj.Percentile(50) / 1e3,
			"virt_p90_us":         soj.Percentile(90) / 1e3,
			"virt_p99_us":         soj.Percentile(99) / 1e3,
			"virt_capacity_ops_s": ol.capacity(s.ladder, s.p99LimitNS),
			"virt_ns_per_op":      float64(total.VirtualNS) / float64(n),
		},
		layers:   map[string]float64{},
		schedule: sched.sum(),
		notes: []string{
			fmt.Sprintf("requests=%d (plus %d preload and warm-up) at reference rate %.0f/s: percentiles over n=%d sojourns", n, warmAttempted, s.refRate, soj.Count()),
			fmt.Sprintf("open loop in virtual time: arrivals fixed in advance, generator lateness 0 by construction; p99 limit %.1fus", s.p99LimitNS/1e3),
			fmt.Sprintf("unloaded service time (rack virtual ns, n=%d): p50=%.0f p99=%.0f mean=%.0f", n,
				unloaded.Percentile(50), unloaded.Percentile(99), float64(total.VirtualNS)/float64(n)),
			"failures: " + chk.summary(),
		},
	}
	for _, k := range virtualMetrics {
		sim.u64(uint64(res.e2e[k] * 1e6))
	}
	res.sim = sim.sum()
	if tr != nil {
		rig.layers(res.layers, tr, n, gets, getHits, allocs1-allocs0, frees1-frees0)
		fabricLayer(res.layers, total, n, serverNS, clientNS)
		mem.layer(res.layers, n)
	}
	return res, nil
}

func (rig *kvRig) allocStats() (allocs, frees uint64) {
	for _, c := range rig.conns {
		a, f := c.view.AllocStats()
		allocs += a
		frees += f
	}
	return allocs, frees
}

// layers fills the ipc and redis per-layer metrics from the spans; the
// container-only layers report their idle zero.
func (rig *kvRig) layers(m map[string]float64, tr *tracer, n, gets, hits int, allocs, frees uint64) {
	t := tr.totals()
	per := func(v float64) float64 { return v / float64(n) }
	m["ipc.send_virt_ns"] = per(float64(t[spIPCSend].virtNS))
	m["ipc.recv_virt_ns"] = per(float64(t[spIPCRecv].virtNS))
	m["ipc.send_host_ns"] = per(float64(t[spIPCSend].hostNS))
	m["ipc.recv_host_ns"] = per(float64(t[spIPCRecv].hostNS))
	m["ipc.msg_bytes"] = ratio(float64(t[spIPCSend].bytes), float64(t[spIPCSend].count))
	m["redis.exec_virt_ns"] = per(float64(t[spRedisExec].virtNS))
	m["redis.exec_host_ns"] = per(float64(t[spRedisExec].hostNS))
	m["redis.client_host_ns"] = per(float64(t[spClientPipe].selfNS + t[spClientFlushSend].selfNS + t[spClientFlushRecv].selfNS))
	m["redis.get_hit_ratio"] = ratio(float64(hits), float64(gets))
	m["redis.arena_allocs_per_op"] = per(float64(allocs))
	m["redis.arena_frees_per_op"] = per(float64(frees))
	m["redis.live_keys"] = float64(rig.rack.RedisStore().Len(rig.conns[0].server))
	m["bench.request_self_host_ns"] = per(float64(t[spRequest].selfNS))
}
