// Command perfbench is the repository's benchmark: it runs one of four
// workloads against the system's public surfaces for a fixed time,
// checks every op's output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1) as the last line of
// standard output. See README.md for the workloads, metrics and flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// bench is one set-up workload.
type bench interface {
	// clients is the number of closed-loop clients.
	clients() int
	// op sends op k. It returns the op's latency and the check of its
	// output, or a non-nil error if the op failed. A nil tracer means an
	// untraced op.
	op(ctx context.Context, k int64, tr *tracer) (time.Duration, check, error)
	// traceStart and traceEnd bracket the traced phase; traceEnd adds
	// the workload's counters (cache hit ratios, shard attempts).
	traceStart(ctx context.Context) error
	traceEnd(ctx context.Context, tr *tracer) error
	// report prints informative lines that are not metrics.
	report(w io.Writer)
	close()
}

// workload names a set-up function. README.md gives each workload's
// reason.
type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64, dir string) (bench, error)
	// memOps is how many ops peak_rss_mb covers (0: all). tamsimd keeps
	// every finished job, so over a fixed time a faster program would
	// hold more jobs; over a fixed number of ops it holds the same. Each
	// is below what a 35-second run completes on a 2-core machine.
	memOps int
	// block is the length of the request stream's blocks: a run ends
	// only after whole blocks, so the block's mix is the run's mix.
	block int
	// probe, if set, times a path no workload drives end to end, at the
	// end of the traced run; its ops count in attempted and failed.
	probe func(ctx context.Context, tr *tracer) (attempted, failed int, err error)
}

var workloads = []workload{
	{"table2-paper", setupTable2, 0, 1, nil},
	{"runs-serve", setupRunsServe, 4000, runsBlock, nil},
	// The sharded sweep path is probed, not driven end to end: as a
	// workload of its own it was not steady on a shared 2-core host.
	{"sweeps-stored", setupSweepsStored, 140, 1, shardProbe},
}

// An untraced run sets up at least setupReps times, and more until the
// set-ups have taken setupMin together, so that a short set-up is timed
// often enough for its median to be steady. setup_s is the median.
const (
	setupReps = 9
	setupMin  = 2 * time.Second
)

// outDir holds result files, span dumps and the run's scratch space,
// relative to the repository root.
const outDir = ".bench_out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: table2-paper, runs-serve or sweeps-stored")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured ops to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the measured ops to this file")
	golden := flag.Bool("write-golden", false, "regenerate "+goldenPath+" from the current code and exit")
	compare := flag.Bool("compare", false, "compare two result files (arguments: old new) and exit")
	flag.Parse()
	ctx := context.Background()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("--compare takes two result files")
		}
		return compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *golden:
		return writeGolden(ctx)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fp := fingerprint()
	fmt.Printf("fingerprint: %s\n", fp)
	prof := profiler{cpu: *cpuprofile, mem: *memprofile}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var info map[string]any
	if *traced == 0 {
		res, info, err = measureEndToEnd(ctx, w, *seed, dir, dur, prof)
	} else {
		res, info, err = measureLayers(ctx, w, *seed, dir, dur, prof)
	}
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traced))
	if err := writeJSON(file, resultFile{Fingerprint: fp, Workload: w.name, Seed: *seed, Seconds: *seconds,
		Trace: *traced, Result: res, Info: info}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// profiler writes the optional profiles around the measured phase.
type profiler struct{ cpu, mem string }

func (p profiler) start() (stop func() error, err error) {
	if p.cpu == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func (p profiler) heap() error {
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measureEndToEnd sets the workload up repeatedly (keeping the last),
// then runs the untraced closed loop for dur.
func measureEndToEnd(ctx context.Context, w *workload, seed uint64, dir string, dur time.Duration, prof profiler) (result, map[string]any, error) {
	var b bench
	var setups []float64
	var total time.Duration
	for len(setups) < setupReps || total < setupMin {
		if b != nil {
			b.close()
		}
		t := time.Now()
		var err error
		if b, err = w.setup(ctx, seed, dir); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t)
		total += d
		setups = append(setups, d.Seconds())
	}
	defer b.close()

	// Return the set-ups' garbage to the OS so the peak memory is the
	// measured ops' own.
	debug.FreeOSMemory()
	stop, err := prof.start()
	if err != nil {
		return result{}, nil, err
	}
	var next int64
	st := drive(ctx, b, nil, &next, dur, w.memOps, w.block)
	if err := stop(); err != nil {
		return result{}, nil, err
	}
	if st.abort != nil {
		return result{}, nil, st.abort
	}
	st.verify()
	if err := prof.heap(); err != nil {
		return result{}, nil, err
	}
	b.report(os.Stdout)

	n, failed := len(st.ops), st.failed()
	if n == 0 {
		return result{}, nil, fmt.Errorf("no op completed in %v", dur)
	}
	lat := st.latenciesMS()
	tailV, tailP := tail(lat)
	var instrs uint64
	for _, o := range st.ops {
		if o.err == nil {
			instrs += o.instrs
		}
	}
	ok := float64(n - failed)
	v := map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        ok / st.wall.Seconds(),
		"p50_ms":           median(lat),
		"tail_ms":          tailV,
		"cpu_ms_per_op":    float64(st.cpu.Nanoseconds()) / 1e6 / float64(n),
		"sim_minstr_per_s": float64(instrs) / st.wall.Seconds() / 1e6,
		"success_rate":     ok / float64(n),
		"peak_rss_mb":      st.peakMB,
	}
	fmt.Printf("p50_ms %.3f and tail_ms %.3f at p%.2f over %d ops; setup_s the median of %d set-ups; %d failed (%d the documented divergence)\n",
		v["p50_ms"], tailV, tailP, n, len(setups), failed, st.known)
	info := map[string]any{"ops": n, "tail_percentile": tailP, "setup_s_runs": setups, "known_divergence": st.known}
	return result{
		Correct:   failed == st.known,
		Attempted: n,
		Failed:    failed,
		Metrics:   metricValues(endToEnd, v),
	}, info, nil
}

// measureLayers sets up once, runs an untraced phase and a traced
// phase of two fifths of dur each on the same code path, then the layer
// probe and the workload's own probe; per-layer metrics come from the
// traced phase's and the probes' spans and counts.
func measureLayers(ctx context.Context, w *workload, seed uint64, dir string, dur time.Duration, prof profiler) (result, map[string]any, error) {
	b, err := w.setup(ctx, seed, dir)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer b.close()
	// Both phases take the path the traced phase times, so that they
	// differ only in the tracer.
	if t, ok := b.(*table2Paper); ok {
		t.primitives = true
	}
	var next int64
	plain := drive(ctx, b, nil, &next, dur*2/5, 0, w.block)
	if plain.abort != nil {
		return result{}, nil, plain.abort
	}
	plain.verify()
	tr := newTracer()
	if err := b.traceStart(ctx); err != nil {
		return result{}, nil, err
	}
	stop, err := prof.start()
	if err != nil {
		return result{}, nil, err
	}
	traced := drive(ctx, b, tr, &next, dur*2/5, 0, w.block)
	if err := stop(); err != nil {
		return result{}, nil, err
	}
	if traced.abort != nil {
		return result{}, nil, traced.abort
	}
	traced.verify()
	if err := b.traceEnd(ctx, tr); err != nil {
		return result{}, nil, err
	}
	if err := probe(ctx, tr, dir); err != nil {
		return result{}, nil, fmt.Errorf("layer probe: %w", err)
	}
	attempted, failed := len(plain.ops)+len(traced.ops), plain.failed()+traced.failed()
	if w.probe != nil {
		n, f, err := w.probe(ctx, tr)
		if err != nil {
			return result{}, nil, err
		}
		attempted, failed = attempted+n, failed+f
	}
	if err := prof.heap(); err != nil {
		return result{}, nil, err
	}
	b.report(os.Stdout)
	if len(plain.ops) == 0 || len(traced.ops) == 0 {
		return result{}, nil, fmt.Errorf("no op completed in a phase of %v", dur*2/5)
	}
	v := layerMetrics(tr)
	p0, p1 := median(plain.latenciesMS()), median(traced.latenciesMS())
	v["bench.tracing_overhead_pct"] = 100 * (p1 - p0) / p0
	fmt.Printf("tracing overhead: p50 %.3f ms untraced (%d ops), %.3f ms traced (%d ops)\n", p0, len(plain.ops), p1, len(traced.ops))
	spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return result{}, nil, err
	}
	fmt.Printf("spans: %s\n", spans)
	known := plain.known + traced.known
	return result{
		Correct:   failed == known,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metricValues(perLayer, v),
	}, map[string]any{"known_divergence": known}, nil
}

func metricValues(defs []metricDef, v map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return m
}

// resultFile is what a run leaves in outDir, for --compare.
type resultFile struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	Result      result            `json:"result"`
	Info        map[string]any    `json:"info"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareResults prints each metric of two result files side by side,
// or, when the runs' machine fingerprints differ, says so and scores
// nothing.
func compareResults(out io.Writer, oldPath, newPath string) error {
	var files [2]resultFile
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if diff := fingerprintDiff(files[0].Fingerprint, files[1].Fingerprint); diff != "" {
		fmt.Fprintf(out, "not scored: machine fingerprints differ (%s)\n", diff)
		return nil
	}
	if files[0].Workload != files[1].Workload || files[0].Trace != files[1].Trace || files[0].Seconds != files[1].Seconds {
		fmt.Fprintln(out, "not scored: the files come from different workloads, trace modes or run lengths")
		return nil
	}
	var names []string
	for n := range files[1].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, nw := files[0].Result.Metrics[n], files[1].Result.Metrics[n]
		change := "n/a"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nw.Value-o.Value)/o.Value)
		}
		fmt.Fprintf(out, "%-40s %14.4f %14.4f %8s %s\n", n, o.Value, nw.Value, change, nw.Unit)
	}
	return nil
}
