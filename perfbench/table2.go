package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"jmtam/internal/core"
	"jmtam/internal/experiments"
)

// goldenPath is where --write-golden stores the table2-paper golden,
// relative to the repository root.
const goldenPath = "perfbench/golden/table2-paper.json"

//go:embed golden/table2-paper.json
var table2Golden []byte

var table2Impls = []core.Impl{core.ImplMD, core.ImplAM}

// table2Paper runs the paper-scale Table 2 grid (6 programs × {md, am}
// × 24 geometries × 3 penalties) through Sweep.ExecuteContext at
// parallelism nproc, one sweep per op. A traced run's ops run the same
// units through the layer primitives instead, with a span around each
// call in its traced phase.
type table2Paper struct {
	sweep      *experiments.Sweep
	golden     []unitResult
	primitives bool // ops go through the layer primitives (traced runs)

	mu    sync.Mutex
	first []unitResult // first op's units, for the accuracy table
}

func paperSweep() *experiments.Sweep {
	s := experiments.DefaultSweep(experiments.PaperWorkloads())
	s.Impls = table2Impls
	s.Parallelism = runtime.NumCPU()
	return s
}

func setupTable2(ctx context.Context, _ uint64, _ string) (bench, error) {
	var golden []unitResult
	if err := json.Unmarshal(table2Golden, &golden); err != nil || len(golden) == 0 {
		return nil, fmt.Errorf("table2-paper golden %s unreadable (regenerate with --write-golden): %v", goldenPath, err)
	}
	// A quick-scale sweep warms the pooled simulator memory, the heap and
	// the code paths before the first timed op.
	warm := experiments.DefaultSweep(experiments.QuickWorkloads())
	warm.Parallelism = runtime.NumCPU()
	if _, err := warm.ExecuteContext(ctx); err != nil {
		return nil, err
	}
	return &table2Paper{sweep: paperSweep(), golden: golden}, nil
}

func (t *table2Paper) clients() int { return 1 }

func (t *table2Paper) op(ctx context.Context, k int64, tr *tracer) (time.Duration, check, error) {
	// Each sweep starts from a collected heap, as it does in a fresh
	// experiments process, so its peak memory does not depend on when
	// the previous sweep's garbage happens to be collected.
	runtime.GC()
	start := time.Now()
	var units []unitResult
	if t.primitives {
		var err error
		if units, err = primitiveSweep(ctx, tr, k, t.sweep); err != nil {
			return time.Since(start), nil, err
		}
	} else {
		ds, err := t.sweep.ExecuteContext(ctx)
		if err != nil {
			return time.Since(start), nil, err
		}
		units = datasetUnits(t.sweep, ds)
	}
	lat := time.Since(start)
	t.mu.Lock()
	if t.first == nil {
		t.first = units
	}
	t.mu.Unlock()
	return lat, func() (uint64, error) {
		var instrs uint64
		for _, u := range units {
			instrs += u.Instructions
		}
		return instrs, checkUnits(t.golden, units)
	}, nil
}

// primitiveSweep runs the sweep's units through runUnit on nproc
// workers, as Sweep.ExecuteContext schedules them: one unit per worker,
// all geometries replayed in one vectorized pass. A nil tracer records
// nothing.
func primitiveSweep(ctx context.Context, tr *tracer, k int64, s *experiments.Sweep) ([]unitResult, error) {
	root := tr.begin("op", "table2-paper", k, 0)
	defer tr.end(root, 0)
	units := make([]unitResult, len(s.Workloads)*len(table2Impls))
	err := forEachCPU(len(units), func(i int) error {
		w, impl := s.Workloads[i/len(table2Impls)], table2Impls[i%len(table2Impls)]
		u, _, err := runUnit(ctx, tr, k, root, w, impl, paperGrid())
		if err == nil {
			units[i] = *u
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return units, nil
}

// datasetUnits flattens a sweep's dataset into golden form, workload
// major, backend minor.
func datasetUnits(s *experiments.Sweep, ds *experiments.Dataset) []unitResult {
	var units []unitResult
	for _, w := range s.Workloads {
		for _, impl := range table2Impls {
			r := ds.Run(w.Name, impl)
			if r == nil {
				continue
			}
			u := unitResult{Program: w.Name, Arg: w.Arg, Impl: impl.Name(), Instructions: r.Instructions, Counts: r.Counts}
			for _, c := range r.Caches {
				u.Caches = append(u.Caches, geomStats{c.IMisses, c.DMisses, c.Writebacks})
			}
			units = append(units, u)
		}
	}
	return units
}

// checkUnits compares every unit's instructions, reference counts and
// per-geometry misses and writebacks with the golden.
func checkUnits(want, got []unitResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d units, golden has %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		id := unitKey(w.Program, w.Arg, w.Impl)
		switch {
		case g.Program != w.Program || g.Arg != w.Arg || g.Impl != w.Impl:
			return fmt.Errorf("unit %d is %s, golden has %s", i, unitKey(g.Program, g.Arg, g.Impl), id)
		case g.Instructions != w.Instructions:
			return fmt.Errorf("%s: %d instructions, golden %d", id, g.Instructions, w.Instructions)
		case g.Counts != w.Counts:
			return fmt.Errorf("%s: reference counts differ from the golden", id)
		case !reflect.DeepEqual(g.Caches, w.Caches):
			return fmt.Errorf("%s: per-geometry misses or writebacks differ from the golden", id)
		}
	}
	return nil
}

func (t *table2Paper) traceStart(context.Context) error        { return nil }
func (t *table2Paper) traceEnd(context.Context, *tracer) error { return nil }
func (t *table2Paper) close()                                  {}

// paperTable2 holds the published r12/r24/r48 of the paper's Table 2
// (MD/AM total-cycle ratio, 8K 4-way, 64-byte blocks), as listed in
// EXPERIMENTS.md.
var paperTable2 = []struct {
	program string
	r       [3]float64
}{
	{"mmt", [3]float64{1.03, 1.20, 1.54}},
	{"qs", [3]float64{0.98, 1.13, 1.38}},
	{"dtw", [3]float64{0.97, 1.12, 1.39}},
	{"paraffins", [3]float64{0.87, 0.92, 0.99}},
	{"wavefront", [3]float64{0.87, 0.86, 0.87}},
	{"ss", [3]float64{0.61, 0.61, 0.62}},
}

// report prints the model's Table 2 ratios beside the paper's. It
// depends only on simulated statistics, so it is byte-identical across
// changes that keep the golden.
func (t *table2Paper) report(w io.Writer) {
	t.mu.Lock()
	units := t.first
	t.mu.Unlock()
	if units == nil {
		return
	}
	printAccuracy(w, units)
}

func printAccuracy(w io.Writer, units []unitResult) {
	g84 := 3*len(gridAssocs) + 2 // 8K 4-way
	cycles := func(u *unitResult, p int) float64 {
		c := u.Caches[g84]
		return float64(u.Instructions + uint64(p)*(c.IMisses+c.DMisses))
	}
	fmt.Fprintln(w, "paper accuracy: MD/AM cycle ratio at 8K 4-way, model vs paper Table 2 (model - paper)")
	fmt.Fprintf(w, "  %-10s %-22s %-22s %-22s\n", "program", "r12", "r24", "r48")
	for _, row := range paperTable2 {
		var md, am *unitResult
		for i := range units {
			if units[i].Program == row.program && units[i].Impl == "md" {
				md = &units[i]
			}
			if units[i].Program == row.program && units[i].Impl == "am" {
				am = &units[i]
			}
		}
		if md == nil || am == nil || len(md.Caches) <= g84 || len(am.Caches) <= g84 {
			continue
		}
		fmt.Fprintf(w, "  %-10s", row.program)
		for j, p := range []int{12, 24, 48} {
			r := cycles(md, p) / cycles(am, p)
			fmt.Fprintf(w, " %-22s", fmt.Sprintf("%.2f vs %.2f (%+.2f)", r, row.r[j], r-row.r[j]))
		}
		fmt.Fprintln(w)
	}
}

// writeGolden regenerates the table2-paper golden from a sweep of the
// current code.
func writeGolden(ctx context.Context) error {
	s := paperSweep()
	ds, err := s.ExecuteContext(ctx)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(datasetUnits(s, ds), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
