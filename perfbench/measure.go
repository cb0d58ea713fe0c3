package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"flacos/internal/fabric"
	"flacos/internal/loadgen"
	"flacos/internal/metrics"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
type span struct {
	name       spanName
	parent     int32 // index of the enclosing span, -1 for a request root
	req        int32
	start, end int64  // host ns since the tracer's epoch
	virt       uint64 // virtual ns charged to the acting node during the call
	bytes      int    // message or read size where the call moves bytes
	node       *fabric.Node
}

// spanName identifies the public call a span wraps; its layer is the part
// of the printed name before the first dot.
type spanName uint8

const (
	spRequest spanName = iota
	spClientPipe
	spClientFlushSend
	spClientFlushRecv
	spIPCSend
	spIPCRecv
	spRedisExec
	spScaleUpOn
	spFSWriteBack
	spFSDropCaches
	spFSRead
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRequest:         "bench.request",
	spClientPipe:      "redis.client_pipe",
	spClientFlushSend: "redis.client_flush_send",
	spClientFlushRecv: "redis.client_flush_recv",
	spIPCSend:         "ipc.send",
	spIPCRecv:         "ipc.recv",
	spRedisExec:       "redis.exec",
	spScaleUpOn:       "serverless.scale_up_on",
	spFSWriteBack:     "fs.write_back_once",
	spFSDropCaches:    "fs.drop_caches",
	spFSRead:          "fs.read",
}

// tracer records the measured phase's spans in memory. A nil *tracer is
// the untraced run: every method is a no-op, so both runs make the same
// calls in the same order. Every span feeds the per-name totals; the
// spans of the first keepRequests requests are also kept whole and
// written out at the end.
type tracer struct {
	epoch  time.Time
	active bool   // false during setup
	cur    []span // the current request's spans; parents index into cur
	open   []int32
	req    int32
	tot    [numSpanNames]spanTotals
	kept   []span // parents index into kept
	keptN  int
}

const keepRequests = 4096

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start turns recording on; spans made before (during setup) are not kept.
func (t *tracer) start() {
	if t != nil {
		t.active = true
	}
}

// request closes the previous request and starts request id; spans begun
// until the next call share it.
func (t *tracer) request(id int) {
	if t == nil || !t.active {
		return
	}
	t.flush()
	t.req = int32(id)
}

// begin opens a span for a call made by node n (nil for benchmark code).
func (t *tracer) begin(name spanName, n *fabric.Node) {
	if t == nil || !t.active {
		return
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	s := span{name: name, parent: parent, req: t.req, node: n}
	if n != nil {
		s.virt = n.VirtualNS()
	}
	t.cur = append(t.cur, s)
	t.open = append(t.open, int32(len(t.cur)-1))
	t.cur[len(t.cur)-1].start = t.now()
}

// end closes the innermost open span, recording the bytes it moved.
func (t *tracer) end(bytes int) {
	if t == nil || !t.active {
		return
	}
	end := t.now()
	k := len(t.open) - 1
	s := &t.cur[t.open[k]]
	t.open = t.open[:k]
	s.end = end
	s.bytes = bytes
	if s.node != nil {
		s.virt = s.node.VirtualNS() - s.virt
	}
}

// spanTotals aggregates one span name over a run.
type spanTotals struct {
	count          int
	hostNS, selfNS int64
	virtNS         uint64
	bytes          int64
}

// flush folds the current request's spans into the totals, with self
// time: a span's duration minus the durations of its direct children.
func (t *tracer) flush() {
	var child [64]int64
	for _, s := range t.cur {
		if s.parent >= 0 && int(s.parent) < len(child) {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.cur {
		a := &t.tot[s.name]
		a.count++
		a.hostNS += s.end - s.start
		a.selfNS += s.end - s.start
		if i < len(child) {
			a.selfNS -= child[i]
		}
		a.virtNS += s.virt
		a.bytes += int64(s.bytes)
	}
	if len(t.cur) > 0 && t.keptN < keepRequests {
		base := int32(len(t.kept))
		for _, s := range t.cur {
			if s.parent >= 0 {
				s.parent += base
			}
			t.kept = append(t.kept, s)
		}
		t.keptN++
	}
	t.cur = t.cur[:0]
}

// totals returns the per-name sums over every recorded span.
func (t *tracer) totals() [numSpanNames]spanTotals {
	t.flush()
	return t.tot
}

// write stores the kept spans as tab-separated lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.flush()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "span\treq\tparent\tname\tnode\tstart_ns\tend_ns\tvirt_ns\tbytes")
	var line []byte
	for i, s := range t.kept {
		node := -1
		if s.node != nil {
			node = s.node.ID()
		}
		line = strconv.AppendInt(line[:0], int64(i), 10)
		for _, v := range []int64{int64(s.req), int64(s.parent)} {
			line = append(line, '\t')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\t')
		line = append(line, spanNames[s.name]...)
		for _, v := range []int64{int64(node), s.start, s.end, int64(s.virt), int64(s.bytes)} {
			line = append(line, '\t')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// rackVirtual sums every node's virtual clock.
func rackVirtual(f *fabric.Fabric) uint64 {
	var sum uint64
	for i := 0; i < f.NumNodes(); i++ {
		sum += f.Node(i).VirtualNS()
	}
	return sum
}

// nodeStats snapshots every node's fabric counters.
func nodeStats(f *fabric.Fabric) []fabric.NodeStatsSnapshot {
	out := make([]fabric.NodeStatsSnapshot, f.NumNodes())
	for i := range out {
		out[i] = f.Node(i).Stats()
	}
	return out
}

// statsDelta returns after-before per node.
func statsDelta(after, before []fabric.NodeStatsSnapshot) []fabric.NodeStatsSnapshot {
	out := make([]fabric.NodeStatsSnapshot, len(after))
	for i := range after {
		out[i] = after[i].Delta(before[i])
	}
	return out
}

// sumStats adds per-node snapshots field-wise.
func sumStats(per []fabric.NodeStatsSnapshot) fabric.NodeStatsSnapshot {
	var s fabric.NodeStatsSnapshot
	for _, p := range per {
		s.Loads += p.Loads
		s.Stores += p.Stores
		s.Hits += p.Hits
		s.Misses += p.Misses
		s.WriteBacks += p.WriteBacks
		s.Invalidates += p.Invalidates
		s.Atomics += p.Atomics
		s.Fences += p.Fences
		s.BulkBytesRead += p.BulkBytesRead
		s.BulkBytesWritten += p.BulkBytesWritten
		s.VirtualNS += p.VirtualNS
	}
	return s
}

// fabricLayer reports the fabric counters accrued over a run, per request.
func fabricLayer(m map[string]float64, total fabric.NodeStatsSnapshot, ops int, serverNS, clientNS uint64) {
	per := func(v uint64) float64 { return float64(v) / float64(ops) }
	m["fabric.loads_per_op"] = per(total.Loads)
	m["fabric.stores_per_op"] = per(total.Stores)
	m["fabric.hit_ratio"] = ratio(float64(total.Hits), float64(total.Hits+total.Misses))
	m["fabric.misses_per_op"] = per(total.Misses)
	m["fabric.writebacks_per_op"] = per(total.WriteBacks)
	m["fabric.invalidates_per_op"] = per(total.Invalidates)
	m["fabric.atomics_per_op"] = per(total.Atomics)
	m["fabric.fences_per_op"] = per(total.Fences)
	m["fabric.bulk_read_bytes_per_op"] = per(total.BulkBytesRead)
	m["fabric.bulk_write_bytes_per_op"] = per(total.BulkBytesWritten)
	m["fabric.server_virt_ns_per_op"] = per(serverNS)
	m["fabric.client_virt_ns_per_op"] = per(clientNS)
}

// hostMem is the Go runtime's view of the benchmark process.
type hostMem struct{ before, after runtime.MemStats }

func (h *hostMem) start() { runtime.ReadMemStats(&h.before) }
func (h *hostMem) stop()  { runtime.ReadMemStats(&h.after) }

// layer reports the allocation and GC work done between start and stop.
func (h *hostMem) layer(m map[string]float64, ops int) {
	m["host.alloc_bytes_per_op"] = float64(h.after.TotalAlloc-h.before.TotalAlloc) / float64(ops)
	m["host.allocs_per_op"] = float64(h.after.Mallocs-h.before.Mallocs) / float64(ops)
	m["host.gc_cycles"] = float64(h.after.NumGC - h.before.NumGC)
	m["host.gc_pause_ms"] = float64(h.after.PauseTotalNs-h.before.PauseTotalNs) / 1e6
}

// heapMB forces a collection and returns the live heap in MiB. keep is
// held live across the collection (the rack under test).
func heapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapInuse) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// histogram holds every sample (nearest-rank percentiles).
func histogram(v []uint64) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, x := range v {
		h.Record(float64(x))
	}
	return h
}

// openLoop is the virtual-time load model shared by every workload:
// requests keep their seeded order and measured rack service time, arrive
// as a Poisson stream at rate (requests per virtual second), and queue
// FIFO at the node that served them (loadgen.Replay). The arrival times
// are fixed in advance, so the generator is never late by construction.
type openLoop struct {
	service []uint64
	server  []int
	servers int
	seed    uint64
}

// minReplay is the least number of requests one replay pushes through the
// queues: a run with fewer measured requests cycles through them in order,
// so the p99 of a short workload rests on as many sojourns as a long one's.
const minReplay = 200_000

// at replays the requests at rate, returning achieved throughput and the
// sojourn-time histogram (nearest-rank percentiles).
func (o openLoop) at(rate float64) (float64, *metrics.Histogram) {
	arr := loadgen.NewArrivals(o.seed, rate)
	n := len(o.service)
	ops := make([]loadgen.Op, (minReplay+n-1)/n*n)
	for i := range ops {
		ops[i] = loadgen.Op{ArrivalNS: arr.Next(), Server: o.server[i%n], ServiceNS: o.service[i%n]}
	}
	return loadgen.Replay(ops, o.servers)
}

// ladder is a fixed geometric sequence of offered rates.
type ladder struct {
	lo, step float64
	rungs    int
}

func (l ladder) rate(i int) float64 { return l.lo * math.Pow(l.step, float64(i)) }

// capacity returns the highest rung at which the sojourn p99 stays within
// limitNS and achieved throughput keeps up with 0.9x the offered rate (no
// growing backlog), or 0 if no rung meets both. Every rung replays the
// same uniform draws, so arrivals only compress as the rate rises: each
// request's sojourn can only grow and achieved/offered can only fall, so
// feasibility is monotone and bisection finds the highest feasible rung.
func (o openLoop) capacity(l ladder, limitNS float64) float64 {
	ok := func(i int) bool {
		r := l.rate(i)
		achieved, soj := o.at(r)
		return soj.Percentile(99) <= limitNS && achieved >= 0.9*r
	}
	lo, hi := -1, l.rungs // ok(lo) holds (or lo = -1), ok(hi) fails (or hi = rungs)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return l.rate(lo)
}

// digest hashes everything a run simulated (or scheduled), so two runs
// can prove they modelled the same rack without comparing every number.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) stats(per []fabric.NodeStatsSnapshot) {
	for _, s := range per {
		d.u64(s.Loads, s.Stores, s.Hits, s.Misses, s.WriteBacks, s.Invalidates,
			s.Atomics, s.Fences, s.BulkBytesRead, s.BulkBytesWritten, s.VirtualNS)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }
