package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostNow is the benchmark's only host-clock read: every timing in
// this package is a difference of two hostNow values.
func hostNow() time.Time {
	return time.Now() //hpslint:ignore determinism the benchmark times the simulator from outside; no simulated result depends on the host clock
}

// hostSince reports the host seconds elapsed since t.
func hostSince(t time.Time) float64 { return hostNow().Sub(t).Seconds() }

// summary is the order statistics of one timing's samples. With the
// 10-20 reps a run collects, no percentile above the median has ten
// samples beyond it, so the median is the reported value and the
// quartiles only show the spread.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	// InOrder keeps the samples as taken, so drift over a run shows.
	InOrder []float64
}

// summarize computes the order statistics by linear interpolation
// between closest ranks. It panics on an empty sample: every caller
// times at least one rep.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return summary{N: len(s), Min: s[0], Q1: at(0.25), Median: at(0.5), Q3: at(0.75), Max: s[len(s)-1], InOrder: samples}
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g in order %.3g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.InOrder)
}

func median(samples []float64) float64 { return summarize(samples).Median }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MB. It reports an error where /proc is absent rather than a zero
// that would read as a memory win.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// calibIters is the fixed length of the calibration loop.
const calibIters = 20_000_000

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibNS times a fixed xorshift loop that touches no repository code
// and reports ns per iteration: the machine's speed class, for reading
// host-time metrics taken on different machines side by side.
func calibNS() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	start := hostNow()
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	secs := hostSince(start)
	calibSink = x
	return secs * 1e9 / calibIters
}
