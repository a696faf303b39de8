package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"

	"somrm/internal/core"
	"somrm/internal/difftest"
	"somrm/internal/models"
	"somrm/internal/spec"
)

// Every input is a pure function of the workload seed (and, for a stream,
// of the operation index), so the same seed sends the same bytes on every
// run and every host. Sizes and operation mixes are fixed; the seed moves
// only parameters, so each seed costs the same work and medians from
// different seeds are comparable.

// paperVariances are Table 1's variance parameters.
var paperVariances = []float64{0, 1, 10}

// opRand returns the deterministic random source of operation i of a
// stream seeded with seed.
func opRand(seed, i int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + i*7_919 + 1))
}

// mustJSON encodes v compactly; the inputs are built here, so a failure is
// a bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// specOf converts a library model to its JSON spec.
func specOf(m *core.Model, err error) *spec.Model {
	if err != nil {
		panic(err)
	}
	sp, err := spec.FromModel(m)
	if err != nil {
		panic(err)
	}
	return sp
}

// onOffSpec is the paper's ON-OFF multiplexer with n states (n-1 sources,
// capacity n-1) and per-source variance sigma2.
func onOffSpec(n int, sigma2, alpha, beta float64) *spec.Model {
	p := models.PaperSmall(sigma2)
	p.N, p.C, p.Alpha, p.Beta = n-1, float64(n-1), alpha, beta
	return specOf(models.OnOff(p))
}

// paperSmallSpec is the figs 3-7 model (33 states, Table 1).
func paperSmallSpec(sigma2 float64) *spec.Model {
	return specOf(models.OnOff(models.PaperSmall(sigma2)))
}

// fig34Grid is the 20-point time grid of figs 3 and 4.
func fig34Grid() []float64 {
	out := make([]float64, 20)
	for i := range out {
		out[i] = 0.05 * float64(i+1)
	}
	return out
}

// appendFloat appends the shortest JSON number that round-trips v.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// solveBody renders a POST /v1/solve body around a pre-encoded model.
func solveBody(model []byte, t float64, order int, boundsAt []float64) []byte {
	b := make([]byte, 0, len(model)+96)
	b = append(b, `{"model":`...)
	b = append(b, model...)
	b = append(b, `,"t":`...)
	b = appendFloat(b, t)
	b = append(b, `,"order":`...)
	b = strconv.AppendInt(b, int64(order), 10)
	if len(boundsAt) > 0 {
		b = append(b, `,"bounds_at":`...)
		b = appendFloats(b, boundsAt)
	}
	return append(b, '}')
}

// batchBody renders a POST /v1/solve/batch body with one item.
func batchBody(model []byte, times []float64, order int, boundsAt []float64) []byte {
	b := make([]byte, 0, len(model)+512)
	b = append(b, `{"model":`...)
	b = append(b, model...)
	b = append(b, `,"items":[{"times":`...)
	b = appendFloats(b, times)
	b = append(b, `,"order":`...)
	b = strconv.AppendInt(b, int64(order), 10)
	if len(boundsAt) > 0 {
		b = append(b, `,"bounds_at":`...)
		b = appendFloats(b, boundsAt)
	}
	return append(b, `}]}`...)
}

// steadyMean is the steady-state mean reward rate of the paper model
// (32·4/7); bounds points are placed around t times it.
const steadyMean = 32.0 * 4 / 7

// boundsAround returns three CDF points around the paper model's mean.
func boundsAround(t float64) []float64 {
	m := steadyMean * t
	return []float64{0.8 * m, m, 1.2 * m}
}

// httpReq is one HTTP operation's input.
type httpReq struct {
	key   int64 // equal keys send equal bodies
	batch bool
	body  []byte
	// The fields below restate what body encodes, for the reference solve.
	entry    int // index of the model in the workload's model table
	times    []float64
	order    int
	boundsAt []float64
}

// paperDigit is one value EXPERIMENTS.md prints for figs 3/4, with its
// printed text: a served or computed moment must round to it.
type paperDigit struct {
	sigma2 float64
	t      float64
	moment int
	text   string
}

// paperDigits are EXPERIMENTS.md's fig 3 means (identical for every σ²)
// and fig 4 second and third moments at t = 0.5.
var paperDigits = func() []paperDigit {
	var out []paperDigit
	for _, s2 := range paperVariances {
		out = append(out,
			paperDigit{s2, 0.1, 1, "2.81485"},
			paperDigit{s2, 0.5, 1, "11.0429"},
			paperDigit{s2, 1.0, 1, "20.2431"})
	}
	return append(out,
		paperDigit{0, 0.5, 2, "122.573"}, paperDigit{1, 0.5, 2, "127.530"}, paperDigit{10, 0.5, 2, "172.144"},
		paperDigit{0, 0.5, 3, "1367.36"}, paperDigit{1, 0.5, 3, "1529.70"}, paperDigit{10, 0.5, 3, "2990.77"})
}()

// matchesPrinted reports whether v rounds to the printed decimal text:
// |v - printed| is at most half a unit in the last printed place.
func matchesPrinted(v float64, text string) bool {
	p, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return false
	}
	decimals := 0
	for i := len(text) - 1; i >= 0 && text[i] != '.'; i-- {
		decimals++
	}
	if decimals == len(text) {
		decimals = 0
	}
	return math.Abs(v-p) <= 0.5*math.Pow(10, -float64(decimals))*(1+1e-9)
}

// hotKeys is the serve-hot key set: the nine fig 3/4 points EXPERIMENTS.md
// prints (σ² ∈ {0,1,10} × t ∈ {0.1, 0.5, 1}, order 3), then paper-small
// requests cycling through σ², the fig 3/4 grid and orders 1..12, with CDF
// bounds on every third; the seed nudges each time by up to 0.1%.
func hotKeys(seed int64, paper [][]byte) []httpReq {
	const seeded = 39
	rng := rand.New(rand.NewSource(seed))
	var out []httpReq
	for k := range paperVariances {
		for _, t := range []float64{0.1, 0.5, 1} {
			out = append(out, httpReq{key: int64(len(out)), body: solveBody(paper[k], t, 3, nil), entry: k, times: []float64{t}, order: 3})
		}
	}
	grid := fig34Grid()
	for i := 0; i < seeded; i++ {
		k := i % len(paperVariances)
		t := grid[i*7%len(grid)] * (1 + 1e-3*rng.Float64())
		order := 1 + i*5%12
		var bounds []float64
		if i%3 == 0 {
			order = max(order, 4)
			bounds = boundsAround(t)
		}
		out = append(out, httpReq{key: int64(len(out)), body: solveBody(paper[k], t, order, bounds), entry: k,
			times: []float64{t}, order: order, boundsAt: bounds})
	}
	return out
}

// coldEntry is one model of the serve-cold table and how it is asked.
type coldEntry struct {
	sp     *spec.Model
	paper  bool // a figs 3-7 model with variance sigma2
	sigma2 float64
	json   []byte
	batch  bool
	order  int
	bound  bool    // attach CDF bounds
	baseT  float64 // requests ask t = baseT·(1 + 0.01·u)
}

// Serve-cold table layout. The table is walked cyclically, one entry per
// operation; it holds more distinct models than the server's 128-entry
// prepared-model cache, so the seeded models miss that cache on every
// visit (only the three paper models stay resident).
const (
	coldPaper   = 60  // paper-small single solves
	coldBatch   = 20  // paper-small batches over the 20-point fig 3/4 grid
	coldLadder  = 160 // seeded models, sizes log-spread from 2 to 10,001 states
	coldMaxSize = 10_001
)

// coldTable builds the serve-cold model table. Everything that sets a
// request's cost is fixed by its position in the table: the model class
// and size (a ladder log-spread from 2 to 10,001 states), the moment
// order, and the number of randomization iterations (80 to 240, which
// keeps the largest request near 100 ms, so no multi-second operation
// shares the latency distribution with the sub-millisecond ones). The
// seed only nudges rates by up to ±1%, so every seed sends different bytes
// at the same cost.
func coldTable(seed int64) []coldEntry {
	rng := rand.New(rand.NewSource(seed))
	nudge := func() float64 { return 1 + 0.02*(rng.Float64()-0.5) }
	paper := make([][]byte, len(paperVariances))
	paperSp := make([]*spec.Model, len(paperVariances))
	for k, s2 := range paperVariances {
		paperSp[k] = paperSmallSpec(s2)
		paper[k] = mustJSON(paperSp[k])
	}
	grid := fig34Grid()
	var out []coldEntry
	for i := 0; i < coldPaper; i++ {
		k := i % len(paperVariances)
		e := coldEntry{sp: paperSp[k], paper: true, sigma2: paperVariances[k], json: paper[k],
			order: 1 + i*5%12, baseT: grid[i*7%len(grid)]}
		if i%4 == 0 {
			e.order, e.bound = max(e.order, 4), true
		}
		out = append(out, e)
	}
	for i := 0; i < coldBatch; i++ {
		k := i % len(paperVariances)
		out = append(out, coldEntry{sp: paperSp[k], paper: true, sigma2: paperVariances[k], json: paper[k],
			batch: true, order: 2 + i%4, bound: i%2 == 0, baseT: 1})
	}
	for i := 0; i < coldLadder; i++ {
		size := int(math.Round(2 * math.Pow(coldMaxSize/2.0, float64(i)/float64(coldLadder-1))))
		_, frac := math.Modf(float64(i) * 0.6180339887)
		iters := 80 + 160*frac
		var sp *spec.Model
		switch {
		case size <= 40:
			// difftest's generator, seeded by the position, picks 2-40
			// states; the workload seed nudges its rates.
			sp = difftest.Generate(rand.New(rand.NewSource(int64(i))))
			for k := range sp.Transitions {
				sp.Transitions[k].Rate *= nudge()
			}
			for k := range sp.Rates {
				sp.Rates[k] *= nudge()
			}
		case i%2 == 0:
			sp = onOffSpec(size, paperVariances[i%3], 4*nudge(), 3*nudge())
		default:
			p := models.MultiprocessorParams{P: size - 1, Lambda: nudge(), Mu: 10 * nudge(), Work: 1, Sigma2: 0.25 * nudge()}
			if i%3 == 0 {
				p.RepairCost = 0.5 * nudge()
			}
			sp = specOf(models.Multiprocessor(p))
		}
		out = append(out, coldEntry{sp: sp, json: mustJSON(sp), order: 2 + i%3, baseT: iters / maxExitRate(sp)})
	}
	// Interleave: a fixed permutation spreads the large models over the
	// cycle, so any stretch of operations has the same mix.
	perm := rand.New(rand.NewSource(1)).Perm(len(out))
	shuffled := make([]coldEntry, len(out))
	for i, p := range perm {
		shuffled[i] = out[p]
	}
	return shuffled
}

// maxExitRate returns a spec's largest total exit rate.
func maxExitRate(sp *spec.Model) float64 {
	exits := make([]float64, sp.States)
	for _, tr := range sp.Transitions {
		exits[tr.From] += tr.Rate
	}
	q := 0.0
	for _, e := range exits {
		q = math.Max(q, e)
	}
	return q
}

// coldReq returns serve-cold operation i: table entry i mod len(table) at
// a horizon nudged by (seed, i), so every operation is a distinct cache key.
func coldReq(seed int64, table []coldEntry, i int64) httpReq {
	entry := int(i % int64(len(table)))
	e := table[entry]
	u := opRand(seed, i).Float64()
	r := httpReq{key: i, batch: e.batch, entry: entry, order: e.order}
	if e.batch {
		r.times = fig34Grid()
		for k := range r.times {
			r.times[k] *= 1 + 0.01*u
		}
		if e.bound {
			r.boundsAt = boundsAround(0.5)
		}
		r.body = batchBody(e.json, r.times, e.order, r.boundsAt)
		return r
	}
	t := e.baseT * (1 + 0.01*u)
	r.times = []float64{t}
	if e.bound {
		r.boundsAt = boundsAround(t)
	}
	r.body = solveBody(e.json, t, e.order, r.boundsAt)
	return r
}

// horizons returns k seeded horizons base·(1 + 0.02·u): distinct inputs
// whose cost differs by well under the run-to-run noise.
func horizons(seed int64, base float64, k int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, k)
	for i := range out {
		out[i] = base * (1 + 0.02*rng.Float64())
	}
	return out
}

// denseSpec is a k-state chain with every transition present: composed
// with a birth-death chain it yields a wide band.
func denseSpec(k int, rng *rand.Rand) *spec.Model {
	sp := &spec.Model{States: k, Rates: make([]float64, k), Variances: make([]float64, k), Initial: make([]float64, k)}
	for i := 0; i < k; i++ {
		sp.Rates[i] = 2*rng.Float64() - 0.5
		sp.Variances[i] = 0.5 * rng.Float64()
		for j := 0; j < k; j++ {
			if i != j {
				sp.Transitions = append(sp.Transitions, spec.Transition{From: i, To: j, Rate: 0.5 + 4*rng.Float64()})
			}
		}
	}
	sp.Initial[0] = 1
	return sp
}

// qbdSpec is a level-dependent quasi-birth-death process: levels of b
// phases, every phase reaching every phase of its own and both adjacent
// levels. Its generator is block-tridiagonal with dense b×b blocks, too
// wide for the band format, which is what makes the resolver pick qbd.
func qbdSpec(levels, b int, rng *rand.Rand) *spec.Model {
	n := levels * b
	sp := &spec.Model{States: n, Rates: make([]float64, n), Variances: make([]float64, n), Initial: make([]float64, n)}
	for l := 0; l < levels; l++ {
		for p := 0; p < b; p++ {
			i := l*b + p
			sp.Rates[i] = 1 + 0.1*float64(p) - 0.5*float64(l)/float64(levels)
			sp.Variances[i] = 0.2 + 0.5*rng.Float64()
			for q := 0; q < b; q++ {
				if q != p {
					sp.Transitions = append(sp.Transitions, spec.Transition{From: i, To: l*b + q, Rate: 0.3 + rng.Float64()})
				}
				if l+1 < levels {
					sp.Transitions = append(sp.Transitions, spec.Transition{From: i, To: (l+1)*b + q, Rate: 0.2 + 0.3*rng.Float64()})
				}
				if l > 0 {
					sp.Transitions = append(sp.Transitions, spec.Transition{From: i, To: (l-1)*b + q, Rate: 0.2 + 0.3*rng.Float64()})
				}
			}
		}
	}
	sp.Initial[0] = 1
	return sp
}

// structuredModel is one structured-workload model: its component specs
// (two or more for a composition, one otherwise), the storage format the
// auto resolver is expected to pick, and the base horizon of its solves.
type structuredModel struct {
	name   string
	format string
	comps  []*spec.Model
	baseT  float64
}

// structuredModels returns one model per storage format the auto resolver
// picks today for models on the fused worker team (the serial csr64 path
// is what every serve-cold solve takes). Sizes, variances and horizons are
// fixed; the seed nudges rates by up to ±1%. Horizons are set so each
// solve takes roughly 40-115 ms on a 2-core Xeon.
func structuredModels(seed int64) []structuredModel {
	rng := rand.New(rand.NewSource(seed))
	nudge := func() float64 { return 1 + 0.02*(rng.Float64()-0.5) }
	ab := func() (float64, float64) { return 4 * nudge(), 3 * nudge() }
	a1, b1 := ab()
	a2, b2 := ab()
	a3, b3 := ab()
	a4, b4 := ab()
	a5, b5 := ab()
	return []structuredModel{
		{name: "onoff201+onoff201", format: "csr32", baseT: 0.08,
			comps: []*spec.Model{onOffSpec(201, 1, a1, b1), onOffSpec(201, 10, a2, b2)}},
		{name: "onoff8001+dense8", format: "band", baseT: 0.0004,
			comps: []*spec.Model{onOffSpec(8001, 10, a3, b3), denseSpec(8, rng)}},
		{name: "onoff301+onoff301", format: "kron", baseT: 0.002,
			comps: []*spec.Model{onOffSpec(301, 1, a4, b4), onOffSpec(301, 10, a5, b5)}},
		{name: "qbd2000x12", format: "qbd", baseT: 1.5,
			comps: []*spec.Model{qbdSpec(2000, 12, rng)}},
	}
}

// fig8Base is the fig8-large horizon. q = 800,000, so qt = 56 and the
// truncation point is G ≈ 120: long enough that the sweep (band AVX2
// kernel, temporal blocking, 2-worker team) does nearly all the work, and
// short enough that a 20-second run holds over 100 solves, so its p90 has
// ten samples beyond it. The paper's own t = 0.01..0.05 points take 6 to
// 30 seconds each here.
const fig8Base = 7e-5
