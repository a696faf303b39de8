package main

import (
	"time"
)

// Host probes, recorded at the start and end of every run. They move no
// end-to-end metric; a run taken while the host was slow shows as a larger
// refMS, and streamGBps gives the sweep kernels' computed GB/s a measured
// denominator.

// refLoopLen keeps the reference loop's data in L1 (4 KiB of float64).
const refLoopLen = 512

var refSink float64

// refMS times a fixed, throughput-bound, L1-resident floating-point loop:
// four independent multiply-add chains over a 4 KiB array, 4,000 passes
// (about 8 million multiply-adds). The median of five repetitions is
// returned in milliseconds.
func refMS() float64 {
	a := make([]float64, refLoopLen)
	for i := range a {
		a[i] = 1 + float64(i%7)*1e-3
	}
	reps := make([]float64, 5)
	for r := range reps {
		start := time.Now()
		var s0, s1, s2, s3 float64
		for pass := 0; pass < 4000; pass++ {
			for i := 0; i < refLoopLen; i += 4 {
				s0 = s0*0.999 + a[i]
				s1 = s1*0.999 + a[i+1]
				s2 = s2*0.999 + a[i+2]
				s3 = s3*0.999 + a[i+3]
			}
		}
		refSink += s0 + s1 + s2 + s3
		reps[r] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(reps)
}

// streamWords is the length of each triad array: 2 Mi float64 = 16 MiB,
// so the three arrays hold 48 MiB. That is the size of the fig8-large
// sweep's working set (200,001 states × ~200 B/row) and far inside the
// host's 300 MiB L3: the probe measures the bandwidth the sweep kernels
// actually stream at, not DRAM bandwidth, which would need arrays several
// times the L3 (over a GiB) on a machine shared with other jobs.
const streamWords = 2 << 20

// streamGBps runs a STREAM-style triad a[i] = b[i] + s*c[i] over three
// streamWords arrays and returns the median of seven passes in GB/s,
// counting 24 bytes per element (two loads, one store).
func streamGBps() float64 {
	a := make([]float64, streamWords)
	b := make([]float64, streamWords)
	c := make([]float64, streamWords)
	for i := range b {
		b[i], c[i] = float64(i%13), float64(i%5)
	}
	const s = 3.0
	reps := make([]float64, 7)
	for r := range reps {
		start := time.Now()
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
		reps[r] = float64(24*streamWords) / time.Since(start).Seconds() / 1e9
	}
	refSink += a[streamWords/2]
	return median(reps)
}

// hostProbe is one pair of host measurements.
type hostProbe struct {
	RefMS      float64
	StreamGBps float64
}

func probeHost() hostProbe { return hostProbe{RefMS: refMS(), StreamGBps: streamGBps()} }
