package main

import (
	"bytes"
	"fmt"
	"time"

	"flacos/internal/core"
	"flacos/internal/experiments"
	"flacos/internal/fabric"
	"flacos/internal/ipc"
	"flacos/internal/loadgen"
	"flacos/internal/serverless"
)

// ctrSpec defines the §4.2 container-start workload: rounds on a fresh
// rack, each starting every image once per node through
// Controller.ScaleUpOn in a seeded order.
type ctrSpec struct {
	nodes int
	// cacheFrames is core.Config.PageCacheFrames. The benchmark relieves
	// memory pressure the one way the fs offers (WriteBackOnce, then
	// DropCaches) whenever a start could push the cache past it.
	cacheFrames uint64
	// imagePages is the total image size per round, in pages: more than
	// cacheFrames, so later starts find their image evicted, but little
	// enough that a round's page installs fit the fs index (README.md).
	imagePages         int
	minPages, maxPages int // per-image size range
	maxLayers          int
	roundsPerSecond    float64 // run length, as a fixed count per --seconds
	readBackLayers     int     // layers read back per round for the check
	p99LimitNS         float64 // capacity limit on the start sojourn
	ladder             ladder
}

// layerPath is where serverless.NodeRuntime keeps a layer in the shared
// file system.
func layerPath(l serverless.Layer) string { return "/images/" + l.Digest }

// ctrRound is one round's generated inputs.
type ctrRound struct {
	images []serverless.Image
	starts []ctrStart
}

type ctrStart struct{ image, node int }

// genRound draws one round: image sizes and layer counts, then a seeded
// permutation of every (image, node) pair.
func genRound(s ctrSpec, r *loadgen.Rand, round int) ctrRound {
	var rd ctrRound
	for pages := 0; pages < s.imagePages; {
		p := s.minPages + r.Intn(s.maxPages-s.minPages+1)
		p = min(p, s.imagePages-pages)
		pages += p
		// Sizes end mid-page so the last page of a layer takes the fs's
		// partial-page write path.
		size := uint64(p)*4096 - uint64(r.Intn(4096))
		layers := 1 + r.Intn(s.maxLayers)
		name := fmt.Sprintf("img-%d-%d", round, len(rd.images))
		rd.images = append(rd.images, serverless.SyntheticImage(name, layers, size))
	}
	for i := range rd.images {
		for n := 0; n < s.nodes; n++ {
			rd.starts = append(rd.starts, ctrStart{image: i, node: n})
		}
	}
	for i := len(rd.starts) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		rd.starts[i], rd.starts[j] = rd.starts[j], rd.starts[i]
	}
	return rd
}

// ctrRig is one round's booted rack and control plane.
type ctrRig struct {
	rack *core.Rack
	ctl  *serverless.Controller
	reg  *serverless.Registry
}

// setupRound boots a rack with an empty page cache, pushes the round's
// images and deploys one function per image.
func setupRound(s ctrSpec, rd ctrRound) (*ctrRig, error) {
	rack := core.Boot(core.Config{
		Nodes:              s.nodes,
		GlobalMemory:       48 << 20,
		PageCacheFrames:    s.cacheFrames,
		AnonFrames:         3 * s.cacheFrames, // headroom for frames awaiting their grace period
		CacheCapacityLines: -1,                // see setupKV
		IPC:                ipc.Config{MaxConns: 4, MaxListeners: 4, MsgMax: 4096},
	})
	dc := experiments.DefaultContainer()
	reg := serverless.NewRegistry(dc.RegistryRTTNS, dc.RegistryBytesPerNS)
	ctl := rack.Serverless(reg, serverless.DefaultRuntimeConfig())
	// Rack.Serverless boots the scheduler, whose keepers and idle workers
	// charge fabric operations on a host timer. ScaleUpOn never consults
	// it, so stop it: every virtual-clock number then repeats exactly.
	rack.Scheduler().Stop()
	for i, img := range rd.images {
		reg.Push(img)
		if _, err := ctl.Deploy(fmt.Sprintf("fn-%d", i), img.Name, func(_ *fabric.Node, req []byte) []byte { return req }); err != nil {
			return nil, err
		}
	}
	return &ctrRig{rack: rack, ctl: ctl, reg: reg}, nil
}

// runContainer is the measured phase of the container-start workload.
func runContainer(s ctrSpec, cfg runCfg, tr *tracer) (*result, error) {
	rounds := max(1, int(s.roundsPerSecond*cfg.scale+0.5))
	gen := loadgen.NewRand(cfg.seed)
	sched, sim := newDigest(), newDigest()
	chk := checker{corrupt: cfg.corrupt}

	var (
		setups          []float64
		roundRates      []float64
		service         []uint64
		server          []int
		starts, skipped int
		hostNS          int64
		rackNS          uint64
		mem             hostMem
		l               ctrLayers
	)
	mem.start()
	tr.start()
	for round := 0; round < rounds; round++ {
		rd := genRound(s, gen, round)
		for _, st := range rd.starts {
			sched.u64(uint64(st.image), uint64(st.node), rd.images[st.image].TotalBytes(), uint64(len(rd.images[st.image].Layers)))
		}
		t0 := time.Now()
		rig, err := setupRound(s, rd)
		if err != nil {
			return nil, fmt.Errorf("round %d setup: %w", round, err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		f := rig.rack.Fabric
		stats0 := nodeStats(f)
		r0, pulls0 := rackVirtual(f), rig.reg.LayerPulls()
		hits0, misses0, reads0 := rig.cacheStats()
		// Installs count every page-cache index slot the round consumes:
		// the fs index never reuses a deleted slot, so a round stops
		// starting containers before it could fill the index.
		slotBudget := 3 * indexSlots(s.cacheFrames) / 4
		installs := 0
		warm := make([]bool, len(rd.images))
		cold := make([]int, len(rd.images))
		roundStart, roundStarts := time.Now(), 0
		for i, st := range rd.starts {
			img := rd.images[st.image]
			pages := int(img.TotalBytes()+4095) / 4096
			if installs+pages > slotBudget {
				skipped += len(rd.starts) - i
				break
			}
			o := rig.rack.OS(st.node)
			tr.request(starts)
			tr.begin(spRequest, nil)
			if cached := int(rig.rack.FS.CachedPages(o.Node)); cached+pages > int(s.cacheFrames) {
				tr.begin(spFSWriteBack, o.Node)
				l.devWrites += o.Mount.WriteBackOnce()
				tr.end(0)
				tr.begin(spFSDropCaches, o.Node)
				o.Mount.DropCaches()
				tr.end(0)
				l.drops++
			}
			before := int(rig.rack.FS.CachedPages(o.Node))
			tr.begin(spScaleUpOn, o.Node)
			rep, err := rig.ctl.ScaleUpOn(fmt.Sprintf("fn-%d", st.image), st.node)
			tr.end(0)
			tr.end(0)
			installs += int(rig.rack.FS.CachedPages(o.Node)) - before
			starts++
			roundStarts++
			if err != nil {
				chk.fail("start-error")
				continue
			}
			want := serverless.SourceSharedCache
			if !warm[st.image] {
				want, cold[st.image] = serverless.SourceRegistry, st.node
			}
			warm[st.image] = true
			if rep.Source != want {
				chk.fail("start-source")
			}
			service = append(service, rep.TotalNS)
			server = append(server, st.node)
			l.add(rep)
			sim.u64(uint64(rep.Source), rep.ManifestNS, rep.FetchNS, rep.UnpackNS, rep.InitNS, rep.TotalNS)
		}
		el := time.Since(roundStart)
		hostNS += el.Nanoseconds()
		if roundStarts > 0 {
			roundRates = append(roundRates, float64(roundStarts)/el.Seconds())
		}
		rackNS += rackVirtual(f) - r0
		fab := statsDelta(nodeStats(f), stats0)
		sim.stats(fab)
		l.fabric = sumStats(append(fab, l.fabric))
		hits1, misses1, reads1 := rig.cacheStats()
		l.hits += hits1 - hits0
		l.misses += misses1 - misses0
		l.devReads += reads1 - reads0
		l.pulls += rig.reg.LayerPulls() - pulls0
		l.cached += float64(rig.rack.FS.CachedPages(f.Node(0)))
		l.dirty += float64(rig.rack.OS(0).Mount.DirtyPages())
		l.rounds++
		l.readBacks += rig.readBack(s, rd, cold, warm, gen, &chk, tr)
		if round == rounds-1 {
			l.heapMB = heapMB(rig)
		}
		rig.rack.Shutdown()
	}
	mem.stop()
	if starts == 0 {
		return nil, fmt.Errorf("no container started")
	}

	lat := histogram(service)
	ol := openLoop{service: service, server: server, servers: s.nodes, seed: cfg.seed ^ 0xa77c1}
	res := &result{
		attempted:   starts + l.readBacks,
		failed:      chk.failed,
		hostNSPerOp: float64(hostNS) / float64(starts),
		e2e: map[string]float64{
			"setup_s":             median(setups),
			"host_ops_per_s":      median(roundRates),
			"host_heap_mb":        l.heapMB,
			"virt_p50_us":         lat.Percentile(50) / 1e3,
			"virt_p90_us":         lat.Percentile(90) / 1e3,
			"virt_p99_us":         lat.Percentile(99) / 1e3,
			"virt_capacity_ops_s": ol.capacity(s.ladder, s.p99LimitNS),
			"virt_ns_per_op":      float64(rackNS) / float64(starts),
		},
		layers:   map[string]float64{},
		schedule: sched.sum(),
		notes: []string{
			fmt.Sprintf("starts=%d over %d rounds (%d skipped to keep the page-cache index below %d%% full), %d page-cache drops: start-latency percentiles over n=%d",
				starts, rounds, skipped, 75, l.drops, lat.Count()),
			fmt.Sprintf("capacity: starts replayed open loop (FIFO per node, cycled to at least %d sojourns) against a p99 limit of %.0fs",
				minReplay, s.p99LimitNS/1e9),
			fmt.Sprintf("%d layers read back through a node that did not pull them", l.readBacks),
			"failures: " + chk.summary(),
		},
	}
	for _, k := range virtualMetrics {
		sim.u64(uint64(res.e2e[k] * 1e6))
	}
	res.sim = sim.sum()
	if tr != nil {
		l.report(res.layers, tr, starts)
		mem.layer(res.layers, starts)
	}
	return res, nil
}

// indexSlots is the page-cache index capacity fs.New lays out for
// frames cache frames: twice the frames, rounded up to a power of two.
func indexSlots(frames uint64) int {
	n := 1
	for uint64(n) < 2*frames {
		n <<= 1
	}
	return n
}

func (rig *ctrRig) cacheStats() (hits, misses, devReads uint64) {
	for i := 0; i < rig.rack.Nodes(); i++ {
		h, m := rig.rack.OS(i).Mount.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses, rig.rack.Dev.Reads()
}

// readBack reads a seeded sample of the round's layers through a node
// that did not pull them from the registry and compares every byte with
// Layer.Content.
func (rig *ctrRig) readBack(s ctrSpec, rd ctrRound, cold []int, warm []bool, r *loadgen.Rand, chk *checker, tr *tracer) int {
	var layers []serverless.Layer
	var owner []int
	for i, img := range rd.images {
		if warm[i] {
			for range img.Layers {
				owner = append(owner, cold[i])
			}
			layers = append(layers, img.Layers...)
		}
	}
	k := 0
	for ; k < s.readBackLayers && len(layers) > 0; k++ {
		j := r.Intn(len(layers))
		l := layers[j]
		node := (owner[j] + 1 + r.Intn(s.nodes-1)) % s.nodes
		m := rig.rack.OS(node).Mount
		got := make([]byte, l.Size)
		want := make([]byte, l.Size)
		l.Content(0, want)
		tr.request(-1 - k)
		tr.begin(spFSRead, m.Node())
		id, ok := m.Lookup(layerPath(l))
		n := 0
		if ok {
			n, _ = m.Read(id, 0, got)
		}
		tr.end(n)
		chk.damage(got)
		if !ok || uint64(n) != l.Size || !bytes.Equal(got, want) {
			chk.fail("layer-readback")
		}
	}
	return k
}

// ctrLayers accumulates the container workload's per-layer counters.
type ctrLayers struct {
	fabric                 fabric.NodeStatsSnapshot
	hits, misses, devReads uint64
	devWrites, drops       int
	pulls                  uint64
	cached, dirty          float64
	rounds, readBacks      int
	heapMB                 float64
	cold, shared           int
	manifest, unpack, init uint64
	fetchCold, fetchShared uint64
}

func (l *ctrLayers) add(rep serverless.StartupReport) {
	l.manifest += rep.ManifestNS
	l.unpack += rep.UnpackNS
	l.init += rep.InitNS
	if rep.Source == serverless.SourceRegistry {
		l.cold++
		l.fetchCold += rep.FetchNS
	} else {
		l.shared++
		l.fetchShared += rep.FetchNS
	}
}

// report fills the fs, serverless and fabric per-layer metrics; the
// kv-only layers report their idle zero.
func (l *ctrLayers) report(m map[string]float64, tr *tracer, starts int) {
	t := tr.totals()
	ms := func(ns uint64, n int) float64 { return ratio(float64(ns), float64(n)) / 1e6 }
	m["serverless.start_host_ms"] = ratio(float64(t[spScaleUpOn].hostNS), float64(t[spScaleUpOn].count)) / 1e6
	m["serverless.manifest_virt_ms"] = ms(l.manifest, starts)
	m["serverless.fetch_shared_virt_ms"] = ms(l.fetchShared, l.shared)
	m["serverless.fetch_cold_virt_ms"] = ms(l.fetchCold, l.cold)
	m["serverless.unpack_virt_ms"] = ms(l.unpack, starts)
	m["serverless.init_virt_ms"] = ms(l.init, starts)
	m["serverless.registry_layer_pulls"] = float64(l.pulls)
	m["serverless.shared_start_ratio"] = ratio(float64(l.shared), float64(starts))
	m["fs.pagecache_hit_ratio"] = ratio(float64(l.hits), float64(l.hits+l.misses))
	m["fs.cached_pages"] = l.cached / float64(l.rounds)
	m["fs.dirty_pages"] = l.dirty / float64(l.rounds)
	m["fs.dev_reads_per_start"] = float64(l.devReads) / float64(starts)
	m["fs.dev_writes_per_start"] = float64(l.devWrites) / float64(starts)
	m["fs.drop_caches_per_start"] = float64(l.drops) / float64(starts)
	m["fs.read_back_host_ns"] = ratio(float64(t[spFSRead].hostNS), float64(t[spFSRead].count))
	m["bench.request_self_host_ns"] = float64(t[spRequest].selfNS) / float64(starts)
	fabricLayer(m, l.fabric, starts, l.fabric.VirtualNS, 0)
}
