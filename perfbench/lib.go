package main

import (
	"fmt"
	"sort"
	"time"

	"somrm/internal/core"
	"somrm/internal/difftest"
	"somrm/internal/models"
	"somrm/internal/spec"
)

// libOrder is the moment order of every library workload solve (the
// paper's large example asks for three moments).
const libOrder = 3

// libWorkload solves one prepared model through the library. Operation i
// solves it at seeded horizon i mod len(times).
type libWorkload struct {
	name  string
	prep  *core.Prepared
	times []float64
	// comps holds the component specs when the model is a composition
	// (checked against difftest's convolution oracle), nil otherwise.
	comps []*spec.Model
	// format is the storage format the auto resolver must pick.
	format string

	moments [][]float64 // answers, indexed by opRecord.body
}

func (l *libWorkload) rate() float64 { return 50 }
func (l *libWorkload) cycle() int    { return len(l.times) }
func (l *libWorkload) close()        {}

func (l *libWorkload) input(i int64) float64 { return l.times[i%int64(len(l.times))] }

func (l *libWorkload) do(i int64, tr *tracer) (opRecord, error) {
	t := l.input(i)
	start := time.Now()
	res, err := l.prep.AccumulatedRewardAt([]float64{t}, libOrder, nil)
	end := time.Now()
	rec := opRecord{idx: i, lat: end.Sub(start), body: -1, span: noParentSpan}
	if err != nil {
		return rec, err
	}
	rec.body = int32(len(l.moments))
	l.moments = append(l.moments, res[0].Moments)
	if tr != nil {
		root := tr.add(spanOp, i, noParentSpan, start, end)
		solve := tr.add(spanSolve, i, root, start, end)
		tr.addSweep(i, solve, start, res[0].Stats, l.prep, libOrder)
		rec.span = int32(root)
	}
	return rec, nil
}

// verify compares every operation's moments bitwise with a multi-time
// library solve of the model at the same horizons on the other sweep path
// of referenceOptions, and checks a composition against difftest's exact
// oracle: the moments of a sum of independent rewards are the binomial
// convolution of the components'.
func (l *libWorkload) verify(ops []opRecord) (int, error) {
	seen := make(map[float64]bool)
	for _, op := range ops {
		seen[l.input(op.idx)] = true
	}
	times := make([]float64, 0, len(seen))
	for t := range seen {
		times = append(times, t)
	}
	sort.Float64s(times)
	ref, err := referenceMoments(l.prep, times, libOrder)
	if err != nil {
		return 0, fmt.Errorf("%s: reference solve: %w", l.name, err)
	}
	if len(l.comps) > 1 {
		if err := difftest.CheckComposed(l.comps, times, libOrder); err != nil {
			return 0, fmt.Errorf("%s: convolution oracle: %w", l.name, err)
		}
	}
	wrong := 0
	for _, op := range ops {
		if op.body < 0 {
			continue
		}
		t := l.input(op.idx)
		if got := l.moments[op.body]; !sameBits(got, ref[t]) {
			if wrong < 5 {
				fmt.Fprintf(stderr, "perfbench: op %d (%s, t=%g) wrong: %v, library %v\n", op.idx, l.name, t, got, ref[t])
			}
			wrong++
		}
	}
	return wrong, nil
}

func (l *libWorkload) replay(*tracer, []opRecord) error { return nil }

// setupFig8 builds and prepares the Table 2 model (200,001 states,
// σ² = 10) through the library.
func setupFig8(seed int64, tr *tracer) (workload, error) {
	root := tr.add(spanSetup, setupOpID, noParentSpan, time.Now(), time.Now())
	m, err := models.OnOff(models.PaperLarge())
	if err != nil {
		return nil, err
	}
	var prep *core.Prepared
	tr.timed(spanPrepare, setupOpID, root, func() { prep, err = core.Prepare(m) })
	if err != nil {
		return nil, err
	}
	return &libWorkload{name: "table2", prep: prep, times: horizons(seed, fig8Base, 8), format: "band"}, nil
}

// setupStructured returns the set-up of the structured workload on one
// storage format: it builds that format's model from its specs
// (spec.Build per component, core.ComposeAll for a composition, then
// core.Prepare). Each format is a workload of its own, so each has its own
// latency distribution and a regression confined to one format moves that
// workload's end-to-end metrics.
func setupStructured(format string) func(int64, *tracer) (workload, error) {
	return func(seed int64, tr *tracer) (workload, error) {
		root := tr.add(spanSetup, setupOpID, noParentSpan, time.Now(), time.Now())
		for k, sm := range structuredModels(seed) {
			if sm.format != format {
				continue
			}
			built := make([]*core.Model, len(sm.comps))
			var err error
			for i, sp := range sm.comps {
				tr.timed(spanBuild, setupOpID, root, func() { built[i], err = sp.Build() })
				if err != nil {
					return nil, fmt.Errorf("%s: build: %w", sm.name, err)
				}
			}
			m := built[0]
			if len(built) > 1 {
				tr.timed(spanCompose, setupOpID, root, func() { m, err = core.ComposeAll(built...) })
				if err != nil {
					return nil, fmt.Errorf("%s: compose: %w", sm.name, err)
				}
			}
			var prep *core.Prepared
			tr.timed(spanPrepare, setupOpID, root, func() { prep, err = core.Prepare(m) })
			if err != nil {
				return nil, fmt.Errorf("%s: prepare: %w", sm.name, err)
			}
			return &libWorkload{name: sm.name, prep: prep, times: horizons(seed+int64(k), sm.baseT, 4),
				comps: sm.comps, format: sm.format}, nil
		}
		return nil, fmt.Errorf("no structured model resolves to format %q", format)
	}
}

// warm solves the model once and checks the storage format the auto
// resolver picked, so a resolver change that silently moves the model to
// another kernel fails the run instead of shifting its numbers.
func (l *libWorkload) warm() error {
	res, err := l.prep.AccumulatedRewardAt(l.times[:1], libOrder, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	if got := res[0].Stats.MatrixFormat; got != l.format {
		return fmt.Errorf("%s resolved to format %q, want %q", l.name, got, l.format)
	}
	return nil
}
