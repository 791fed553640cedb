package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// percentile returns the q-th percentile (0..100) of xs by the
// nearest-rank method, or 0 for no samples. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupClock measures set-up the way setup_s reports it: the median of
// several set-ups, half made before the timed section and half after it.
// The host's speed dips by up to 1.8x for seconds at a time, so set-ups
// made back to back share one speed; with as many on each side of a
// timed section of ten seconds or more, the nearest-rank median is the
// faster side's whenever the two sides ran at different speeds.
type setupClock struct {
	before, after int
	times         []float64
}

// newSetupClock makes perSide set-ups on each side of an untraced pass's
// timed section; a traced pass sets up once, before it.
func newSetupClock(perSide int, tr *tracer) *setupClock {
	if tr != nil {
		return &setupClock{before: 1}
	}
	return &setupClock{before: perSide, after: perSide}
}

func (s *setupClock) measure(n int, fn func() error) error {
	for range n {
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		s.times = append(s.times, time.Since(start).Seconds())
	}
	return nil
}

// setUp makes the set-ups before the timed section; the state of the last
// one is what the caller keeps.
func (s *setupClock) setUp(fn func() error) error { return s.measure(s.before, fn) }

// finish makes the set-ups after the timed section, whose state fn
// discards, and reports setup_s.
func (s *setupClock) finish(o *outcome, fn func() error) error {
	if err := s.measure(s.after, fn); err != nil {
		return fmt.Errorf("set-up after the timed section: %w", err)
	}
	o.set("setup_s", median(s.times))
	o.note("setup_s: median of %d set-ups, %d before and %d after the timed section (%.4f..%.4f s)",
		len(s.times), s.before, s.after, slices.Min(s.times), slices.Max(s.times))
	return nil
}

// liveHeapMB forces a collection and returns the heap still in use. The
// second collection empties the sync.Pool victim caches the first one
// fills, so pooled scratch buffers do not count as state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// goStats is a runtime/metrics snapshot; the difference of two gives the
// allocation, collection and pause figures of the section between them.
type goStats struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var goStatNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/gc/pauses:seconds"}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	g := goStats{cpu: cpuTime()}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = samples[2].Value.Float64Histogram()
	}
	return g
}

// report sets the per-op process CPU time and allocation, and the go.*
// metrics, for the section since g with ops operations completed in it.
// CPU time covers the whole process: the collector, the simulator and the
// load generator.
func (g goStats) report(o *outcome, ops float64) {
	now := readGoStats()
	o.set("cpu_us_per_op", ratio(us(now.cpu-g.cpu), ops))
	o.set("go.alloc_bytes_per_op", ratio(float64(now.allocBytes-g.allocBytes), ops))
	o.set("go.gc_cycles", float64(now.gcCycles-g.gcCycles))
	o.set("go.gc_pause_p99_ms", 1000*histDeltaQuantile(g.pauses, now.pauses, 0.99))
}

// histDeltaQuantile returns the q quantile of the samples added to a
// runtime/metrics histogram between two reads, as the upper bound of the
// bucket holding it (0 when nothing was added).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// threadCPU returns the calling thread's user plus system CPU time so far
// (RUSAGE_THREAD); the caller locks its goroutine to the thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
