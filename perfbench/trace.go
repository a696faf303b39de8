package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"somrm/internal/core"
)

// Span names. Each names the module whose public function the benchmark
// called; the root spans are the whole operation as a user sees it.
const (
	spanHTTP     = "http"  // one HTTP round trip (root of an HTTP op)
	spanOp       = "op"    // one library operation (root of a library op)
	spanSetup    = "setup" // one set-up (root of set-up spans)
	spanDecode   = "server.decode"
	spanEncode   = "server.encode"
	spanHash     = "spec.hash"
	spanBuild    = "spec.build"
	spanPrepare  = "core.prepare"
	spanCompose  = "core.compose"
	spanSolve    = "core.solve"
	spanSweep    = "sparse.sweep"
	spanBounds   = "momentbounds.bounds"
	setupOpID    = -1
	noParentSpan = -1
)

// layerSpans are the non-root spans, in report order.
var layerSpans = []string{spanDecode, spanHash, spanBuild, spanCompose, spanPrepare, spanSolve, spanSweep, spanBounds, spanEncode}

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
// Operations run one at a time, so it needs no lock.
type tracer struct {
	t0     time.Time
	spans  []span
	sweeps []sweepSample
	shapes map[*core.Prepared]matrixShape
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), shapes: make(map[*core.Prepared]matrixShape)}
}

// add records a span and returns its id.
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return noParentSpan
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// timed runs f inside a span and returns the span id.
func (t *tracer) timed(name string, op int64, parent int, f func()) int {
	start := time.Now()
	f()
	return t.add(name, op, parent, start, time.Now())
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// opLayers is one operation's breakdown: the root span's duration and each
// layer's self time (summed when a layer ran more than once in the op).
type opLayers struct {
	root  time.Duration // the root span's duration
	rootS time.Duration // the root span's self time
	self  map[string]time.Duration
	dur   map[string]time.Duration
}

// selfTimes folds the spans into per-operation breakdowns. A span's self
// time is its duration minus its children's durations. Replayed layer
// spans of an HTTP op run after the round trip, not inside it, so the
// root's self time is "round trip minus the replayed layer time": the
// server's overhead (routing, normalization, cache and queue, net/http).
// Set-up spans (op -1) are returned separately.
func (t *tracer) selfTimes() (ops map[int64]*opLayers, setup map[string][]time.Duration) {
	childDur := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noParentSpan {
			childDur[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	ops = make(map[int64]*opLayers)
	setup = make(map[string][]time.Duration)
	for _, s := range t.spans {
		self := time.Duration(s.End-s.Start) - childDur[s.ID]
		if s.Op == setupOpID {
			setup[s.Name] = append(setup[s.Name], self)
			continue
		}
		o := ops[s.Op]
		if o == nil {
			o = &opLayers{self: make(map[string]time.Duration), dur: make(map[string]time.Duration)}
			ops[s.Op] = o
		}
		if s.Parent == noParentSpan {
			o.root = time.Duration(s.End - s.Start)
			o.rootS = self
			continue
		}
		o.self[s.Name] += self
		o.dur[s.Name] += time.Duration(s.End - s.Start)
	}
	return ops, setup
}

// sweepSample is one solve's randomization sweep, from core.Stats.
type sweepSample struct {
	format, kernel string
	block          int
	rows, g        int
	matvecs        int64
	sweepNS        int64
	bytesPerRow    float64
}

// addSweep records the sweep inside a solve span as its child (it starts
// with the solve; Stats gives its length, not its start) plus its sample.
func (t *tracer) addSweep(op int64, parent int, start time.Time, st core.Stats, prep *core.Prepared, order int) {
	if t == nil || st.SweepNS <= 0 {
		return
	}
	t.add(spanSweep, op, parent, start, start.Add(time.Duration(st.SweepNS)))
	s := sweepSample{format: st.MatrixFormat, kernel: st.SweepKernel, block: st.TemporalBlock,
		rows: prep.Model().N(), g: st.G, matvecs: st.MatVecs, sweepNS: st.SweepNS,
		bytesPerRow: bytesPerRowIter(st.MatrixFormat, order, t.shapeOf(prep))}
	t.sweeps = append(t.sweeps, s)
}

// matrixShape is what the traffic model needs to know of a generator.
type matrixShape struct {
	nnzPerRow float64
	width     int // band width lo+hi+1
	qbdBlock  int
}

func (t *tracer) shapeOf(prep *core.Prepared) matrixShape {
	if s, ok := t.shapes[prep]; ok {
		return s
	}
	var s matrixShape
	if gen := prep.Model().Generator(); gen != nil {
		a := gen.Matrix()
		lo, hi := a.Bandwidth()
		s = matrixShape{nnzPerRow: float64(a.NNZ()) / float64(a.Rows()), width: lo + hi + 1, qbdBlock: a.QBDBlock()}
	}
	t.shapes[prep] = s
	return s
}

// bytesPerRowIter is the computed memory traffic of one sweep iteration
// per state row, after the DRAM model in BENCHMARKS.md: with L = order+1
// moment lanes, the state read (8L), the next-state store and its write
// allocate (16L), the Poisson accumulators read and written (16L), the
// R'/S' diagonals (16), plus the matrix stream of the resolved format
// (band 8·width, qbd 8·3b, csr32 12 per nonzero + 4, csr64 16 per nonzero
// + 8, kron none: its factors stay in cache). It is the unblocked
// algorithmic traffic; temporal blocking serves most of it from cache.
func bytesPerRowIter(format string, order int, s matrixShape) float64 {
	lanes := float64(order + 1)
	b := 40*lanes + 16
	switch format {
	case "band":
		b += 8 * float64(s.width)
	case "qbd":
		b += 24 * float64(s.qbdBlock)
	case "csr32":
		b += 12*s.nnzPerRow + 4
	case "csr64":
		b += 16*s.nnzPerRow + 8
	}
	return b
}
