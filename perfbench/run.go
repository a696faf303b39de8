package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"somrm/internal/server"
	"somrm/internal/spec"
)

// workload is one set-up workload, ready to run operations.
type workload interface {
	// rate bounds the operations per second the workload completes: it
	// sizes the operation log, which is allocated before the window, and
	// a window ends early when the log is full.
	rate() float64
	// cycle is the length of the workload's operation cycle: operations i
	// and i+cycle differ only in seeded values, not in what they cost.
	cycle() int
	// do runs operation i and records it; with a tracer it also records
	// the operation's root span (and, for library operations, its layers).
	do(i int64, tr *tracer) (opRecord, error)
	// verify checks every answered operation, outside the timed window,
	// and returns the number of wrong ones.
	verify(ops []opRecord) (int, error)
	// replay records the layer spans of traced HTTP operations.
	replay(tr *tracer, ops []opRecord) error
	close()
}

// opRecord is one operation's outcome, kept small: serve-hot logs
// hundreds of thousands per window.
type opRecord struct {
	idx int64
	lat time.Duration
	// body is the interned HTTP response or the index of a library
	// operation's moments; -1 when the operation failed.
	body int32
	span int32 // root span id in a traced window, -1 otherwise
}

// opFailure is a failed operation (transport error, non-200 status,
// solver error).
type opFailure struct {
	idx int64
	err error
}

// minWindowOps is the fewest operations a measured window holds, so that
// its p90 has ten samples beyond it. A window that reaches --seconds with
// fewer keeps running until it has them (it never does on the reference
// host; it guards a much slower one).
const minWindowOps = 100

// warmSeconds of untimed operations precede the measured window, so pooled
// solver arenas, connections and caches are warm.
const warmSeconds = 1.0

// warmBase is where warm-up operation indices start, far from the measured
// stream, so warm-up never sends a measured request.
const warmBase = int64(1) << 40

// window is one measured closed-loop run.
type window struct {
	ops        []opRecord
	failures   []opFailure
	wall       time.Duration
	cpu        time.Duration
	heapLive   uint64 // live heap after the window and one forced GC
	allocBytes uint64
	allocObjs  uint64
	gcPause    time.Duration
	next       int64
}

func readUint(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// measure runs the workload's client in a closed loop from operation
// index first: the client starts its next operation when the previous one
// has answered, until the window has lasted seconds, holds at least minOps
// operations and ends on a multiple of cycle operations, or its operation
// log is full. A window of whole cycles holds the same mix of operations
// in every run, however fast the host is; a window cut mid-cycle would
// hold more or fewer of the slow ones.
//
// The operation log is allocated before the window at a size fixed by the
// workload's rate bound and never grows, so the part of heapLive it takes
// is the same in every run.
//
// heapLive is read after the window, through one forced GC: what the
// process holds between operations (server caches, prepared models,
// pooled solver arenas, inputs and the log). A peak of the live heap over
// the window's own GCs would depend on whether a GC happened to end while
// a solve's scratch was in use, and moved by up to 35% between runs.
func measure(w workload, first int64, seconds float64, minOps, cycle int, tr *tracer) window {
	win := window{ops: make([]opRecord, 0, int(w.rate()*seconds)+minOps+cycle)}

	runtime.GC()
	alloc0 := readUint("/gc/heap/allocs:bytes", "/gc/heap/allocs:objects")
	pause0 := gcPauseTotal()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(win.ops) < cap(win.ops) && (len(win.ops) < minOps || len(win.ops)%cycle != 0 || time.Now().Before(deadline)) {
		i := first + int64(len(win.ops))
		rec, err := w.do(i, tr)
		win.ops = append(win.ops, rec)
		if err != nil {
			win.failures = append(win.failures, opFailure{i, err})
		}
	}
	win.wall, win.cpu, win.gcPause = time.Since(start), cpuTime()-cpu0, gcPauseTotal()-pause0
	if len(win.ops) == cap(win.ops) {
		fmt.Fprintf(stderr, "perfbench: operation log full after %.1f s: the workload ran above its rate bound of %g/s\n",
			win.wall.Seconds(), w.rate())
	}
	win.next = first + int64(len(win.ops))
	alloc1 := readUint("/gc/heap/allocs:bytes", "/gc/heap/allocs:objects")
	win.allocBytes, win.allocObjs = alloc1[0]-alloc0[0], alloc1[1]-alloc0[1]
	runtime.GC()
	win.heapLive = readUint("/gc/heap/live:bytes")[0]
	return win
}

func latenciesMS(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = float64(op.lat) / float64(time.Millisecond)
	}
	return out
}

// counterSource is a workload with server counters.
type counterSource interface {
	serverCounters() (*server.MetricsSnapshot, error)
}

// warmer is a workload with its own warm-up check.
type warmer interface {
	warm() error
}

// run sets the workload up repeatedly (setup_s is the median time; a
// traced run then sets it up once more, untimed, with the tracer), warms
// it, measures one untraced window and, when traced, a second traced
// window whose operations are then replayed layer by layer. Every answer
// of both windows is verified after the windows end. Host probes run at
// the start and the end.
func run(def workloadDef, seed int64, seconds float64, traced bool) (*result, error) {
	hostStart := probeHost()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var w workload
	var setups []float64
	setUp := func(t *tracer) error {
		if w != nil {
			w.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		var err error
		if w, err = def.setup(seed, t); err != nil {
			return fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	spent := 0.0
	for len(setups) < maxSetupReps && (len(setups) < minSetupReps || spent < setupBudget) {
		if err := setUp(nil); err != nil {
			return nil, err
		}
		spent += setups[len(setups)-1]
	}
	setupS := median(setups)
	if traced {
		if err := setUp(tr); err != nil {
			return nil, err
		}
	}
	defer w.close()
	if wm, ok := w.(warmer); ok {
		if err := wm.warm(); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", def.name, err)
		}
	}
	measure(w, warmBase, warmSeconds, 4, 1, nil)

	base := measure(w, 0, seconds, minWindowOps, w.cycle(), nil)
	all, failures := base.ops, base.failures
	var tw window
	var before, after *server.MetricsSnapshot
	if traced {
		var err error
		if before, err = counters(w); err != nil {
			return nil, err
		}
		tw = measure(w, base.next, seconds, minWindowOps, w.cycle(), tr)
		if after, err = counters(w); err != nil {
			return nil, err
		}
		if err := w.replay(tr, tw.ops); err != nil {
			return nil, err
		}
		all = append(all, tw.ops...)
		failures = append(failures, tw.failures...)
	}

	wrong, err := w.verify(all)
	if err != nil {
		return nil, fmt.Errorf("%s verify: %w", def.name, err)
	}
	for k, f := range failures {
		if k < 5 {
			fmt.Fprintf(stderr, "perfbench: op %d failed: %v\n", f.idx, f.err)
		}
	}
	failed := wrong + len(failures)
	hostEnd := probeHost()

	lat := latenciesMS(base.ops)
	n := float64(len(base.ops))
	if !percentileSupported(len(lat), 90) {
		return nil, fmt.Errorf("window holds %d operations, too few for a p90", len(lat))
	}
	res := &result{
		correct:   wrong == 0,
		attempted: len(all),
		failed:    failed,
		extra: map[string]metric{
			"error_ratio": {float64(failed) / float64(len(all)), "ratio"},
			"ops":         {n, "count"},
		},
	}
	e2e := endToEnd(setupS, base)
	if !traced {
		res.metrics = e2e
		res.extra["host.ref_ms"] = metric{hostStart.RefMS, "ms"}
		res.extra["host.ref_ms_end"] = metric{hostEnd.RefMS, "ms"}
		res.extra["host.stream_gbps"] = metric{hostStart.StreamGBps, "GB/s"}
		res.extra["host.stream_gbps_end"] = metric{hostEnd.StreamGBps, "GB/s"}
		return res, nil
	}
	for k, v := range e2e {
		res.extra[k] = v
	}
	res.metrics = layerMetrics(tr, tw, median(lat), before, after, hostStart, hostEnd)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(setupS float64, base window) map[string]metric {
	lat := latenciesMS(base.ops)
	n := float64(len(base.ops))
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"latency_p50_ms":   {median(lat), "ms"},
		"latency_p90_ms":   {percentile(lat, 90), "ms"},
		"throughput_ops_s": {n / base.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":    {float64(base.cpu) / float64(time.Millisecond) / n, "ms"},
		"heap_live_mb":     {float64(base.heapLive) / (1 << 20), "MB"},
	}
}

func counters(w workload) (*server.MetricsSnapshot, error) {
	if cs, ok := w.(counterSource); ok {
		return cs.serverCounters()
	}
	return nil, nil
}

// Format names the sweep reports (core.Stats.MatrixFormat).
var sweepFormats = []string{"band", "csr32", "csr64", "qbd", "kron"}

// layerMetrics computes the per-layer metrics of a traced window. A layer
// a workload never reaches (the server on library workloads, the solver
// on serve-hot) reports 0.
func layerMetrics(tr *tracer, tw window, untracedP50 float64, before, after *server.MetricsSnapshot, hs, he hostProbe) map[string]metric {
	ops, setup := tr.selfTimes()
	n := float64(len(tw.ops))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// layer collects a layer's per-op values (self time, or whole duration)
	// plus its set-up spans.
	layer := func(name string, whole bool) []float64 {
		var out []float64
		for _, o := range ops {
			vals := o.self
			if whole {
				vals = o.dur
			}
			if d, ok := vals[name]; ok {
				out = append(out, ms(d))
			}
		}
		for _, d := range setup[name] {
			out = append(out, ms(d))
		}
		return out
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var overhead, tracedLat []float64
	for _, o := range ops {
		if o.root > 0 {
			overhead = append(overhead, ms(o.rootS))
			tracedLat = append(tracedLat, ms(o.root))
		}
	}
	m := map[string]metric{
		"server.decode_us_p50":       {1000 * p50(layer(spanDecode, false)), "us"},
		"server.encode_us_p50":       {1000 * p50(layer(spanEncode, false)), "us"},
		"server.overhead_ms_p50":     {p50(overhead), "ms"},
		"spec.hash_us_p50":           {1000 * p50(layer(spanHash, false)), "us"},
		"spec.build_ms_p50":          {p50(layer(spanBuild, false)), "ms"},
		"core.prepare_ms_p50":        {p50(layer(spanPrepare, false)), "ms"},
		"core.compose_ms_p50":        {p50(layer(spanCompose, false)), "ms"},
		"core.solve_ms_p50":          {p50(layer(spanSolve, true)), "ms"},
		"core.nonsweep_ms_p50":       {p50(layer(spanSolve, false)), "ms"},
		"sparse.sweep_ms_p50":        {p50(layer(spanSweep, false)), "ms"},
		"momentbounds.bounds_us_p50": {1000 * p50(layer(spanBounds, false)), "us"},
		"sparse.cpu_per_wall":        {ratio(float64(tw.cpu), float64(tw.wall)), "ratio"},
		"go.alloc_kb_per_op":         {float64(tw.allocBytes) / 1024 / n, "kB"},
		"go.allocs_per_op":           {float64(tw.allocObjs) / n, "count"},
		"go.gc_pause_ms_per_s":       {ms(tw.gcPause) / tw.wall.Seconds(), "ms/s"},
		"host.ref_ms":                {hs.RefMS, "ms"},
		"host.ref_ms_end":            {he.RefMS, "ms"},
		"host.stream_gbps":           {hs.StreamGBps, "GB/s"},
		"host.stream_gbps_end":       {he.StreamGBps, "GB/s"},
		"trace.latency_p50_ms":       {p50(tracedLat), "ms"},
		"trace.overhead_ms":          {p50(tracedLat) - untracedP50, "ms"},
		"trace.spans":                {float64(len(tr.spans)), "count"},
	}

	// Accounting: each layer's median self time weighted by the share of
	// operations that reach it, plus the median root self time, against
	// the median traced latency.
	accounted := p50(overhead)
	for _, name := range layerSpans {
		vals := layer(name, false)
		vals = vals[:len(vals)-len(setup[name])]
		accounted += p50(vals) * float64(len(vals)) / float64(max(len(ops), 1))
	}
	m["trace.accounted_ratio"] = metric{ratio(accounted, p50(tracedLat)), "ratio"}

	// Sweep samples: formats, kernels, blocking, per-row cost and traffic.
	var g, matvecs float64
	var bytesRow, gbps []float64
	perRow := make(map[string][]float64)
	formats := make(map[string]float64)
	var avx2, blocked float64
	for _, s := range tr.sweeps {
		g += float64(s.g)
		matvecs += float64(s.matvecs)
		rowIters := float64(s.rows) * float64(s.g)
		perRow[s.format] = append(perRow[s.format], float64(s.sweepNS)/rowIters)
		bytesRow = append(bytesRow, s.bytesPerRow)
		gbps = append(gbps, s.bytesPerRow*rowIters/float64(s.sweepNS))
		formats[s.format]++
		if s.kernel == "avx2" {
			avx2++
		}
		if s.block > 1 {
			blocked++
		}
	}
	sweeps := float64(len(tr.sweeps))
	m["core.g_per_op"] = metric{ratio(g, sweeps), "count"}
	m["core.matvecs_per_op"] = metric{ratio(matvecs, sweeps), "count"}
	m["sparse.bytes_per_row_iter"] = metric{p50(bytesRow), "B"}
	m["sparse.gbps_computed"] = metric{p50(gbps), "GB/s"}
	m["sparse.bw_fraction"] = metric{ratio(p50(gbps), hs.StreamGBps), "ratio"}
	m["sparse.avx2_share"] = metric{ratio(avx2, sweeps), "ratio"}
	m["sparse.blocked_share"] = metric{ratio(blocked, sweeps), "ratio"}
	for _, f := range sweepFormats {
		m["sparse.ns_per_row_iter."+f] = metric{p50(perRow[f]), "ns"}
		m["sparse.format_share."+f] = metric{ratio(formats[f], sweeps), "ratio"}
	}

	// Server counters over the traced window.
	var hit, prepHit, shed float64
	if before != nil && after != nil {
		hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
		ph, pm := float64(after.PreparedHits-before.PreparedHits), float64(after.PreparedMisses-before.PreparedMisses)
		hit, prepHit = ratio(hits, hits+misses), ratio(ph, ph+pm)
		shed = float64(after.ShedQueueFull - before.ShedQueueFull + after.ShedDeadline - before.ShedDeadline +
			after.MemShed - before.MemShed + after.BatchShed - before.BatchShed)
	}
	m["server.cache_hit_ratio"] = metric{hit, "ratio"}
	m["server.prepared_hit_ratio"] = metric{prepHit, "ratio"}
	m["server.shed_total"] = metric{shed, "count"}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{0, v.Unit}
		}
	}
	return m
}

// setupServeHot starts the server and fills its result cache with the
// hot key set, so the measured window is all cache hits.
func setupServeHot(seed int64, _ *tracer) (workload, error) {
	specs := make([]*spec.Model, len(paperVariances))
	paper := make([][]byte, len(paperVariances))
	sigma2 := make(map[int]float64)
	for k, s2 := range paperVariances {
		specs[k] = paperSmallSpec(s2)
		paper[k] = mustJSON(specs[k])
		sigma2[k] = s2
	}
	keys := hotKeys(seed, paper)
	h, err := newHTTPWorkload(func(i int64) httpReq { return keys[i%int64(len(keys))] }, len(keys), specs, sigma2, 10_000)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		status, body, err := h.ls.post(pathOf(k), k.body)
		if err == nil && status != 200 {
			err = fmt.Errorf("HTTP %d: %.200s", status, body)
		}
		if err != nil {
			h.close()
			return nil, fmt.Errorf("fill cache: %w", err)
		}
	}
	return h, nil
}

// setupServeCold builds the serve-cold model table (every model encoded
// once) and starts the server.
func setupServeCold(seed int64, _ *tracer) (workload, error) {
	table := coldTable(seed)
	specs := make([]*spec.Model, len(table))
	sigma2 := make(map[int]float64)
	for i, e := range table {
		specs[i] = e.sp
		if e.paper {
			sigma2[i] = e.sigma2
		}
	}
	return newHTTPWorkload(func(i int64) httpReq { return coldReq(seed, table, i) }, len(table), specs, sigma2, 300)
}
