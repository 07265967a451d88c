package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as Python's statistics.quantiles with
// method="inclusive"). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samplesFor is the fewest samples that give percentile pct ten samples
// beyond it. Each workload fixes the percentile of its tail figure and
// times at least this many calls, so the percentile it reports never
// depends on how fast the machine ran.
func samplesFor(pct float64) int {
	return int(math.Ceil(1000 / (100 - pct)))
}

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads (garbage collection included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock reads wall-clock and CPU time together. The end-to-end times are
// CPU times (see README.md, "Why CPU time"); the per-layer times, which
// come from spans and wrappers, are wall-clock times.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{wall: time.Now(), cpu: cpuTime()} }

// since returns the wall-clock and CPU time elapsed since c started.
func (c clock) since() (wall, cpu time.Duration) {
	return time.Since(c.wall), cpuTime() - c.cpu
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

func secsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = secs(d)
	}
	return out
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
