package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"somrm/internal/core"
	"somrm/internal/momentbounds"
	"somrm/internal/server"
	"somrm/internal/sparse"
	"somrm/internal/spec"
)

// verifyWorkers is how many reference solves run at once during
// verification: one per core of the 2-core reference host.
const verifyWorkers = 2

// liveServer is the solver service as somrm-serve runs it by default
// (GOMAXPROCS workers, 64-slot queue, 256-entry result cache, 128-entry
// prepared-model cache, 30 s deadline, checkpoints on), mounted on a
// loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer() (*liveServer, error) {
	srv := server.New(server.Options{DefaultTimeout: 30 * time.Second, Checkpoints: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener, drains the solver pool and waits for the
// serving goroutine to return.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx)
	_ = ls.srv.Shutdown(ctx)
	ls.client.CloseIdleConnections()
	if err := <-ls.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "perfbench: serve:", err)
	}
}

// post sends one request and returns the status and body.
func (ls *liveServer) post(path string, body []byte) (int, []byte, error) {
	resp, err := ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// metrics reads the server's /metrics counters.
func (ls *liveServer) metrics() (*server.MetricsSnapshot, error) {
	resp, err := ls.client.Get(ls.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &snap, nil
}

func pathOf(r httpReq) string {
	if r.batch {
		return "/v1/solve/batch"
	}
	return "/v1/solve"
}

// httpWorkload drives /v1/solve and /v1/solve/batch with a deterministic
// request stream.
type httpWorkload struct {
	ls  *liveServer
	req func(i int64) httpReq
	// period is the request stream's cycle: request i and i+period send
	// the same model entry.
	period int
	specs  []*spec.Model // model of each request entry
	// paperSigma2 maps an entry to its σ² when it is a figs 3-7 model.
	paperSigma2 map[int]float64
	// opsPerSecond bounds the workload's operation rate.
	opsPerSecond float64

	bodyID map[string]int32
	bodies []string
}

func newHTTPWorkload(req func(int64) httpReq, period int, specs []*spec.Model, paper map[int]float64, opsPerSecond float64) (*httpWorkload, error) {
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	return &httpWorkload{ls: ls, req: req, period: period, specs: specs, paperSigma2: paper,
		opsPerSecond: opsPerSecond, bodyID: make(map[string]int32)}, nil
}

func (h *httpWorkload) rate() float64 { return h.opsPerSecond }
func (h *httpWorkload) cycle() int    { return h.period }
func (h *httpWorkload) close()        { h.ls.close() }

// intern stores a response body once. Bodies end with the per-request
// "elapsed_ms" field; it is cut so that repeated identical answers (cache
// hits) share one copy.
func (h *httpWorkload) intern(body []byte) int32 {
	if k := bytes.LastIndex(body, []byte(`"elapsed_ms":`)); k >= 0 {
		body = body[:k]
	}
	id, ok := h.bodyID[string(body)]
	if !ok {
		id = int32(len(h.bodies))
		h.bodies = append(h.bodies, string(body))
		h.bodyID[h.bodies[id]] = id
	}
	return id
}

func (h *httpWorkload) do(i int64, tr *tracer) (opRecord, error) {
	r := h.req(i)
	start := time.Now()
	status, body, err := h.ls.post(pathOf(r), r.body)
	end := time.Now()
	rec := opRecord{idx: i, lat: end.Sub(start), body: -1}
	rec.span = int32(tr.add(spanHTTP, i, noParentSpan, start, end))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	if err == nil {
		rec.body = h.intern(body)
	}
	return rec, err
}

func (h *httpWorkload) serverCounters() (*server.MetricsSnapshot, error) { return h.ls.metrics() }

// served decodes one stored response into its per-time moments and bounds.
func (h *httpWorkload) served(r httpReq, id int32) (moments [][]float64, bounds [][]server.BoundPoint, cached bool, err error) {
	body := []byte(h.bodies[id] + `"elapsed_ms":0}`)
	if r.batch {
		var br server.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, nil, false, err
		}
		if len(br.Items) != 1 || br.Items[0].Status != server.BatchStatusOK {
			return nil, nil, false, fmt.Errorf("batch item failed: %+v", br.Items)
		}
		for _, p := range br.Items[0].Points {
			moments = append(moments, p.Moments)
			bounds = append(bounds, p.Bounds)
		}
		return moments, bounds, false, nil
	}
	var sr server.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, nil, false, err
	}
	return [][]float64{sr.Moments}, [][]server.BoundPoint{sr.Bounds}, sr.Cached, nil
}

// verify compares every answered operation bitwise with a library solve of
// the same input (built from the same spec bytes, solved at the same times
// and order, on the other sweep path of referenceOptions), and the CDF
// bounds with momentbounds on those moments. Ops on one model and order
// share one multi-time library solve, which the solver guarantees is
// bitwise equal to solving each time alone. Served
// paper-model moments at the points EXPERIMENTS.md prints must match its
// digits. It returns the number of wrong operations.
func (h *httpWorkload) verify(ops []opRecord) (int, error) {
	type group struct {
		entry, order int
	}
	times := make(map[group]map[float64]bool)
	for _, op := range ops {
		if op.body < 0 {
			continue
		}
		r := h.req(op.idx)
		g := group{r.entry, r.order}
		if times[g] == nil {
			times[g] = make(map[float64]bool)
		}
		for _, t := range r.times {
			times[g][t] = true
		}
	}
	groups := make([]group, 0, len(times))
	for g := range times {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].entry != groups[j].entry {
			return groups[i].entry < groups[j].entry
		}
		return groups[i].order < groups[j].order
	})
	refs := make([]map[float64][]float64, len(groups))
	errs := make([]error, len(groups))
	parallel(len(groups), func(k int) {
		g := groups[k]
		ts := make([]float64, 0, len(times[g]))
		for t := range times[g] {
			ts = append(ts, t)
		}
		sort.Float64s(ts)
		m, err := h.specs[g.entry].Build()
		if err == nil {
			var prep *core.Prepared
			if prep, err = core.Prepare(m); err == nil {
				refs[k], err = referenceMoments(prep, ts, g.order)
			}
		}
		errs[k] = err
	})
	ref := make(map[group]map[float64][]float64, len(groups))
	for k, g := range groups {
		if errs[k] != nil {
			return 0, fmt.Errorf("reference solve (entry %d, order %d): %w", g.entry, g.order, errs[k])
		}
		ref[g] = refs[k]
	}

	// Repeated requests (serve-hot) answered with the same body are checked
	// once.
	type answer struct {
		key  int64
		body int32
	}
	checked := make(map[answer]error)
	wrong := 0
	for _, op := range ops {
		if op.body < 0 {
			continue
		}
		r := h.req(op.idx)
		a := answer{r.key, op.body}
		err, ok := checked[a]
		if !ok {
			err = h.checkOp(r, op.body, ref[group{r.entry, r.order}])
			checked[a] = err
		}
		if err != nil {
			if wrong < 5 {
				fmt.Fprintf(stderr, "perfbench: op %d wrong: %v\n", op.idx, err)
			}
			wrong++
		}
	}
	return wrong, nil
}

// checkOp checks one stored response against the reference moments.
func (h *httpWorkload) checkOp(r httpReq, id int32, ref map[float64][]float64) error {
	moments, bounds, _, err := h.served(r, id)
	if err != nil {
		return err
	}
	if len(moments) != len(r.times) {
		return fmt.Errorf("%d points served for %d times", len(moments), len(r.times))
	}
	for k, t := range r.times {
		want := ref[t]
		if !sameBits(moments[k], want) {
			return fmt.Errorf("t=%g: served moments %v, library %v", t, moments[k], want)
		}
		if err := checkBounds(want, r.boundsAt, bounds[k]); err != nil {
			return fmt.Errorf("t=%g: %w", t, err)
		}
		if s2, ok := h.paperSigma2[r.entry]; ok {
			if err := checkPaperDigits(s2, t, moments[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkBounds recomputes the CDF bounds from the reference moments.
func checkBounds(moments, at []float64, got []server.BoundPoint) error {
	if len(got) != len(at) {
		return fmt.Errorf("%d bounds served for %d points", len(got), len(at))
	}
	if len(at) == 0 {
		return nil
	}
	est, err := momentbounds.New(moments)
	if err != nil {
		return fmt.Errorf("reference bounds: %w", err)
	}
	for k, x := range at {
		b, err := est.CDFBounds(x)
		if err != nil {
			return fmt.Errorf("reference bounds at %g: %w", x, err)
		}
		if got[k].X != x || !sameBits([]float64{got[k].Lower, got[k].Upper}, []float64{b.Lower, b.Upper}) {
			return fmt.Errorf("bounds at %g: served %+v, library %+v", x, got[k], b)
		}
	}
	return nil
}

// checkPaperDigits checks moments of a figs 3-7 model at a time
// EXPERIMENTS.md prints against its printed digits.
func checkPaperDigits(sigma2, t float64, moments []float64) error {
	for _, d := range paperDigits {
		if d.sigma2 == sigma2 && d.t == t && d.moment < len(moments) && !matchesPrinted(moments[d.moment], d.text) {
			return fmt.Errorf("σ²=%g t=%g E[B^%d] = %.10g, EXPERIMENTS.md prints %s", sigma2, t, d.moment, moments[d.moment], d.text)
		}
	}
	return nil
}

// sameBits reports whether two vectors are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceChunk bounds the time points of one reference solve: every
// time point keeps its own accumulator vectors.
const referenceChunk = 8

// referenceOptions picks a sweep path other than the one the auto policy
// serves the model on, so the bitwise comparison tests one kernel against
// another: the serial reference sweep (generic CSR, scalar, one thread)
// for models the policy sends to the fused worker team, and the fused
// kernel with one worker (auto format, SIMD where it applies) for models
// it keeps on the serial sweep. The solver guarantees both give bitwise
// identical moments.
func referenceOptions(prep *core.Prepared) *core.Options {
	if sparse.PlanWorkers(0, prep.Model().N()) == 0 {
		return &core.Options{SweepWorkers: 1}
	}
	return &core.Options{SweepWorkers: -1}
}

// referenceMoments solves the prepared model at every time (sorted) on
// the path referenceOptions picks and returns the moments by time.
func referenceMoments(prep *core.Prepared, times []float64, order int) (map[float64][]float64, error) {
	opts := referenceOptions(prep)
	out := make(map[float64][]float64, len(times))
	for lo := 0; lo < len(times); lo += referenceChunk {
		chunk := times[lo:min(lo+referenceChunk, len(times))]
		res, err := prep.AccumulatedRewardAt(chunk, order, opts)
		if err != nil {
			return nil, err
		}
		for k, t := range chunk {
			out[t] = res[k].Moments
		}
	}
	return out, nil
}

// parallel runs f(0..n-1) on verifyWorkers goroutines and waits for them.
func parallel(n int, f func(int)) {
	var next sync.Mutex
	k := 0
	var wg sync.WaitGroup
	for w := 0; w < verifyWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := k
				k++
				next.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// preparedLRU mirrors the server's 128-entry prepared-model cache during
// replay, so a replayed op builds and prepares exactly when the server
// would have.
type preparedLRU struct {
	cap   int
	order *list.List
	items map[[32]byte]*list.Element
}

type lruItem struct {
	key  [32]byte
	prep *core.Prepared
}

func newPreparedLRU(capacity int) *preparedLRU {
	return &preparedLRU{cap: capacity, order: list.New(), items: make(map[[32]byte]*list.Element)}
}

func (c *preparedLRU) get(key [32]byte) *core.Prepared {
	if e, ok := c.items[key]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*lruItem).prep
	}
	return nil
}

func (c *preparedLRU) put(key [32]byte, p *core.Prepared) {
	c.items[key] = c.order.PushFront(&lruItem{key, p})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruItem).key)
	}
}

// serverPreparedCacheSize is somrm-serve's default prepared-cache size.
const serverPreparedCacheSize = 128

// maxReplay bounds how many operations a traced run replays; longer runs
// replay an evenly spaced sample.
const maxReplay = 20_000

// replay runs each traced operation's inputs through the layer functions
// the server calls for it, as child spans of the operation's round trip:
// decode, hash, and for a result-cache miss build/prepare (on a
// prepared-cache miss), solve and bounds, then encode of the answer. The
// round trip minus these is the server's own overhead.
func (h *httpWorkload) replay(tr *tracer, ops []opRecord) error {
	mirror := newPreparedLRU(serverPreparedCacheSize)
	stride := max(1, len(ops)/maxReplay)
	for k := 0; k < len(ops); k += stride {
		op := ops[k]
		if op.body < 0 {
			continue
		}
		if err := h.replayOp(tr, mirror, op); err != nil {
			return fmt.Errorf("replay op %d: %w", op.idx, err)
		}
	}
	return nil
}

func (h *httpWorkload) replayOp(tr *tracer, mirror *preparedLRU, op opRecord) error {
	r := h.req(op.idx)
	root := int(op.span)
	var sp *spec.Model
	var err error
	tr.timed(spanDecode, op.idx, root, func() {
		if r.batch {
			var br server.BatchRequest
			err = json.Unmarshal(r.body, &br)
			sp = br.Model
		} else {
			var sr server.SolveRequest
			err = json.Unmarshal(r.body, &sr)
			sp = sr.Model
		}
	})
	if err != nil {
		return err
	}
	var key [32]byte
	tr.timed(spanHash, op.idx, root, func() { key, err = sp.Hash() })
	if err != nil {
		return err
	}
	_, _, cached, err := h.served(r, op.body)
	if err != nil {
		return err
	}
	if !cached {
		prep := mirror.get(key)
		if prep == nil {
			var m *core.Model
			tr.timed(spanBuild, op.idx, root, func() { m, err = sp.Build() })
			if err != nil {
				return err
			}
			tr.timed(spanPrepare, op.idx, root, func() { prep, err = core.Prepare(m) })
			if err != nil {
				return err
			}
			mirror.put(key, prep)
		}
		opts := &core.Options{Checkpoint: !r.batch}
		var res []*core.Result
		start := time.Now()
		res, err = prep.AccumulatedRewardAt(r.times, r.order, opts)
		solve := tr.add(spanSolve, op.idx, root, start, time.Now())
		if err != nil {
			return err
		}
		tr.addSweep(op.idx, solve, start, res[0].Stats, prep, r.order)
		if len(r.boundsAt) > 0 {
			tr.timed(spanBounds, op.idx, root, func() {
				for _, res := range res {
					est, berr := momentbounds.New(res.Moments)
					if berr != nil {
						err = berr
						return
					}
					for _, x := range r.boundsAt {
						if _, berr := est.CDFBounds(x); berr != nil {
							err = berr
						}
					}
				}
			})
			if err != nil {
				return err
			}
		}
	}
	// Encode the answer the server sent, as the server's writeJSON does.
	var answer any
	if r.batch {
		answer = new(server.BatchResponse)
	} else {
		answer = new(server.SolveResponse)
	}
	if err := json.Unmarshal([]byte(h.bodies[op.body]+`"elapsed_ms":0}`), answer); err != nil {
		return err
	}
	tr.timed(spanEncode, op.idx, root, func() {
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(answer)
	})
	return err
}
