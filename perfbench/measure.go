package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// errKnownDivergence marks a failed op whose only mismatch is a defect
// the benchmark documents (README.md, "Known divergence"). It still
// counts as failed; it does not make the run incorrect.
var errKnownDivergence = errors.New("known divergence")

// errAbort marks an op error that ends the run: the benchmark cannot
// measure the workload as specified.
var errAbort = errors.New("benchmark cannot continue")

// check compares an op's output with its reference and returns the
// simulated instructions the output covers. Checks run after the timed
// phase, so the references they may build count in no metric; a cheap
// check may be done in the op, its check returning the outcome.
type check func() (uint64, error)

// opStat is one completed op.
type opStat struct {
	k      int64
	lat    time.Duration
	check  check // run by verify unless the op itself failed
	err    error
	instrs uint64 // simulated instructions the op's result covers
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	ops    []opStat
	wall   time.Duration
	cpu    time.Duration
	known  int     // failed ops that are the documented divergence
	peakMB float64 // peak resident memory during the phase's first ops
	abort  error   // an op error that ended the phase early
}

func (l *loopStats) failed() int {
	n := 0
	for _, o := range l.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

func (l *loopStats) latenciesMS() []float64 {
	xs := make([]float64, len(l.ops))
	for i, o := range l.ops {
		xs[i] = float64(o.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(xs)
	return xs
}

// drive runs a closed loop: each of clients goroutines sends its next
// op only after the previous one completed, until dur has elapsed and
// the ops sent fill whole blocks of block indices. Op indices come from
// one shared counter, so the request stream is a function of the seed
// and the index alone, whatever the interleaving. The peak memory
// covers the first memOps ops (all ops if 0).
func drive(ctx context.Context, b bench, tr *tracer, next *int64, dur time.Duration, memOps, block int) loopStats {
	var (
		mu  sync.Mutex
		out loopStats
		wg  sync.WaitGroup
	)
	memDone, peak := make(chan struct{}), make(chan float64)
	var memOnce sync.Once
	endMem := func() { memOnce.Do(func() { close(memDone) }) }
	go peakResident(memDone, peak)
	cpu0 := cpuTime()
	start := time.Now()
	// claim hands out the next op index; once dur has elapsed, only the
	// indices left in the current block.
	stopAt := int64(-1)
	claim := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil || out.abort != nil {
			return 0, false
		}
		k := *next
		if stopAt < 0 && time.Since(start) >= dur {
			stopAt = (k + int64(block) - 1) / int64(block) * int64(block)
		}
		if stopAt >= 0 && k >= stopAt {
			return 0, false
		}
		*next = k + 1
		return k, true
	}
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := claim()
				if !ok {
					return
				}
				lat, chk, err := b.op(ctx, k, tr)
				mu.Lock()
				if errors.Is(err, errAbort) {
					out.abort = err
				}
				quit := out.abort != nil
				if !quit {
					out.ops = append(out.ops, opStat{k: k, lat: lat, check: chk, err: err})
					if len(out.ops) == memOps {
						endMem()
					}
				}
				mu.Unlock()
				if quit {
					return
				}
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	endMem()
	out.peakMB = <-peak
	return out
}

// verify runs the checks of a phase's ops on nproc goroutines, after
// its clocks stopped, and counts the failures that are the documented
// divergence.
func (l *loopStats) verify() {
	forEachCPU(len(l.ops), func(i int) error {
		if o := &l.ops[i]; o.err == nil {
			o.instrs, o.err = o.check()
		}
		return nil
	})
	for i := range l.ops {
		o := &l.ops[i]
		if o.err != nil {
			reportFailure(o.k, o.err)
		}
		if errors.Is(o.err, errKnownDivergence) {
			l.known++
		}
	}
}

var reported atomic.Int64

// reportFailure prints the first few failures to standard error.
func reportFailure(k int64, err error) {
	if reported.Add(1) <= 3 {
		fmt.Fprintf(os.Stderr, "op %d failed: %v\n", k, err)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the latency at the highest percentile that leaves at
// least ten samples beyond it, and that percentile. Below 21 samples
// that percentile would fall under the median, so the median is
// returned: the sample does not resolve a tail.
func tail(sorted []float64) (v, pct float64) {
	n := len(sorted)
	if n < 21 {
		return median(sorted), 50
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB is the process's resident memory as the Go runtime
// accounts it: everything it has mapped minus what it has released to
// the operating system.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakResident samples residentMB every 5 ms until stop is closed and
// then sends the largest sample.
func peakResident(stop <-chan struct{}, peak chan<- float64) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	p := residentMB()
	for {
		select {
		case <-stop:
			peak <- max(p, residentMB())
			return
		case <-t.C:
			p = max(p, residentMB())
		}
	}
}
