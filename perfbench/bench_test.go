package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// streamBytes renders every input a workload derives from seed: request
// bodies for the HTTP workloads, model specs and horizons for the library
// ones.
func streamBytes(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	specs := make([][]byte, len(paperVariances))
	for k, s2 := range paperVariances {
		specs[k] = mustJSON(paperSmallSpec(s2))
	}
	var hot bytes.Buffer
	for _, k := range hotKeys(seed, specs) {
		hot.Write(k.body)
	}
	out["serve-hot"] = hot.Bytes()

	table := coldTable(seed)
	var cold bytes.Buffer
	for i := int64(0); i < 2*int64(len(table)); i++ {
		cold.Write(coldReq(seed, table, i).body)
	}
	out["serve-cold"] = cold.Bytes()

	out["fig8-large"] = mustJSON(horizons(seed, fig8Base, 8))
	for k, sm := range structuredModels(seed) {
		out["structured-"+sm.format] = append(mustJSON(sm.comps), mustJSON(horizons(seed+int64(k), sm.baseT, 4))...)
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, again, other := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	for _, w := range workloads {
		if len(a[w.name]) == 0 {
			t.Fatalf("%s: no inputs", w.name)
		}
		if !bytes.Equal(a[w.name], again[w.name]) {
			t.Errorf("%s: seed 7 produced two different request streams", w.name)
		}
		if bytes.Equal(a[w.name], other[w.name]) {
			t.Errorf("%s: seeds 7 and 8 produced the same request stream", w.name)
		}
	}
}

// TestColdKeysDistinct checks that serve-cold never repeats a request, so
// every operation is a result-cache miss.
func TestColdKeysDistinct(t *testing.T) {
	table := coldTable(3)
	seen := make(map[string]int64)
	for i := int64(0); i < 3*int64(len(table)); i++ {
		b := string(coldReq(3, table, i).body)
		if j, ok := seen[b]; ok {
			t.Fatalf("operations %d and %d send the same request", j, i)
		}
		seen[b] = i
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// q1 and q3 from Python's statistics.quantiles(xs, n=4).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 4, 2, 5},
		{[]float64{0.5, 0.25, 1.75}, 0.5, 0.25, 1.75},
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {19, 50, false}} {
		if got := percentileSupported(c.n, c.p); got != c.want {
			t.Errorf("percentileSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMatchesPrinted(t *testing.T) {
	for _, c := range []struct {
		v    float64
		text string
		want bool
	}{
		{127.5304, "127.530", true}, {127.5306, "127.530", false},
		{2.814854, "2.81485", true}, {2.81486, "2.81485", false}, {1529.7049, "1529.70", true},
	} {
		if got := matchesPrinted(c.v, c.text); got != c.want {
			t.Errorf("matchesPrinted(%g, %q) = %v, want %v", c.v, c.text, got, c.want)
		}
	}
}

// TestPaperDigits checks the library against EXPERIMENTS.md's fig 3/4
// values, the oracle the HTTP workloads apply to served paper moments.
func TestPaperDigits(t *testing.T) {
	for _, d := range paperDigits {
		m, err := paperSmallSpec(d.sigma2).Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.AccumulatedReward(d.t, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPaperDigits(d.sigma2, d.t, res.Moments); err != nil {
			t.Error(err)
		}
	}
}

// TestStructuredFormats checks that every structured model still resolves
// to the storage format it stands for.
func TestStructuredFormats(t *testing.T) {
	for _, sm := range structuredModels(1) {
		w, err := setupStructured(sm.format)(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.(*libWorkload).warm(); err != nil {
			t.Error(err)
		}
	}
}

// capWorkload answers instantly, far above its rate bound.
type capWorkload struct{}

func (capWorkload) rate() float64                           { return 1 }
func (capWorkload) cycle() int                              { return 1 }
func (capWorkload) do(i int64, _ *tracer) (opRecord, error) { return opRecord{idx: i}, nil }
func (capWorkload) verify([]opRecord) (int, error)          { return 0, nil }
func (capWorkload) replay(*tracer, []opRecord) error        { return nil }
func (capWorkload) close()                                  {}

// TestOperationLogNeverGrows checks that a workload running above its rate
// bound ends its window when the log is full instead of reallocating it,
// so a faster run cannot change heap_live_mb.
func TestOperationLogNeverGrows(t *testing.T) {
	win := measure(capWorkload{}, 0, 0.5, 10, 1, nil)
	if len(win.ops) != 11 || cap(win.ops) != 11 {
		t.Errorf("log holds %d of capacity %d, want 11 of 11", len(win.ops), cap(win.ops))
	}
	if win.wall >= 500*time.Millisecond {
		t.Errorf("window lasted %v after its log was full", win.wall)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ops := make([]opRecord, minWindowOps)
	for i := range ops {
		ops[i].lat = time.Duration(i+1) * time.Millisecond
	}
	win := window{ops: ops, wall: time.Second, cpu: time.Second, heapLive: 1 << 20}
	check := func(kind string, printed map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
		var got, listed []string
		for k, m := range printed {
			if !name.MatchString(k) {
				t.Errorf("%s metric name %q outside [A-Za-z0-9_.-]+", kind, k)
			}
			got = append(got, k+" "+m.Unit)
		}
		for _, m := range want {
			listed = append(listed, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(listed)
		if !equalStrings(got, listed) {
			t.Errorf("%s metrics printed %v, BENCHMARK.json lists %v", kind, got, listed)
		}
	}
	var defined, listed []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(defined)
	sort.Strings(listed)
	if !equalStrings(defined, listed) {
		t.Errorf("workloads defined %v, BENCHMARK.json lists %v", defined, listed)
	}
	check("end_to_end", endToEnd(1, win), b.EndToEnd)
	check("per_layer", layerMetrics(newTracer(), win, 1, nil, nil, hostProbe{}, hostProbe{}), b.PerLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBytesPerRowMatchesModel pins the traffic model to BENCHMARKS.md's
// tridiagonal order-3 band figure of about 200 B per row and iteration.
func TestBytesPerRowMatchesModel(t *testing.T) {
	if got := bytesPerRowIter("band", 3, matrixShape{width: 3}); got != 200 {
		t.Errorf("band order 3 width 3: %g B/row/iteration, want 200", got)
	}
	if got := bytesPerRowIter("kron", 3, matrixShape{}); got != 176 {
		t.Errorf("kron order 3: %g B/row/iteration, want 176 (vectors only)", got)
	}
}

// TestSelfTimes checks the span arithmetic: a span's self time is its
// duration minus its children's.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(spanHTTP, 4, noParentSpan, at(0), at(10))
	tr.add(spanDecode, 4, root, at(20), at(22))
	solve := tr.add(spanSolve, 4, root, at(22), at(28))
	tr.add(spanSweep, 4, solve, at(22), at(27))
	ops, _ := tr.selfTimes()
	o := ops[4]
	if o.root != 10*time.Millisecond || o.rootS != 2*time.Millisecond {
		t.Errorf("root %v self %v, want 10ms self 2ms", o.root, o.rootS)
	}
	if o.self[spanSolve] != time.Millisecond || o.dur[spanSolve] != 6*time.Millisecond || o.self[spanSweep] != 5*time.Millisecond {
		t.Errorf("solve self %v dur %v sweep %v", o.self[spanSolve], o.dur[spanSolve], o.self[spanSweep])
	}
}
