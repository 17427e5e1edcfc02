package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"jmtam/api"
	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
	"jmtam/internal/trace"
)

// Paper grid: the 24 cache geometries of Table 2 and Figures 3-6, in
// the order experiments.DefaultSweep and /v1/sweeps index them
// (size-major, then associativity).
var (
	gridSizesKB = []int{1, 2, 4, 8, 16, 32, 64, 128}
	gridAssocs  = []int{1, 2, 4}
)

const gridBlockBytes = 64

func paperGrid() []cache.Config {
	var gs []cache.Config
	for _, kb := range gridSizesKB {
		for _, a := range gridAssocs {
			gs = append(gs, cache.Config{SizeBytes: kb * 1024, BlockBytes: gridBlockBytes, Assoc: a})
		}
	}
	return gs
}

// geomStats is one geometry's replay outcome.
type geomStats struct {
	IMisses    uint64 `json:"i"`
	DMisses    uint64 `json:"d"`
	Writebacks uint64 `json:"wb"`
}

// unitResult is one (program, backend) record→replay outcome. The
// exported fields are the table2-paper golden; the rest feed the
// serving references.
type unitResult struct {
	Program      string       `json:"program"`
	Arg          int          `json:"arg"`
	Impl         string       `json:"impl"`
	Instructions uint64       `json:"instructions"`
	Counts       trace.Counts `json:"counts"`
	Caches       []geomStats  `json:"caches"`

	threads, quanta uint64
	tpq, ipt, ipq   float64
}

// runUnit is the record→replay path tamsim and /v1/sweeps take for one
// unit, built from the layer primitives: compile, instantiate, simulate
// with a trace.Recording attached (plus a NIC recording for backends
// with NIC-resident inlets, whose compute stream then excludes the NIC
// share), and replay the compute stream through every geometry in one
// vectorized pass. Each step is a span under a per-unit span.
func runUnit(ctx context.Context, tr *tracer, op int64, parent int32, w experiments.Workload, impl core.Impl, geoms []cache.Config) (*unitResult, *trace.Recording, error) {
	spec, err := programs.ByName(w.Name)
	if err != nil {
		return nil, nil, err
	}
	name := impl.Name()
	unit := tr.begin("experiments.unit", name, op, parent)
	defer tr.end(unit, 0)
	prog := spec.Build(w.Arg)
	opt := core.Options{MaxInstructions: 2_000_000_000}

	id := tr.begin("core.compile", name, op, unit)
	comp, err := core.Compile(impl, prog, opt)
	tr.end(id, 1)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("core.newsim", name, op, unit)
	sim, err := comp.NewSim(prog, opt)
	tr.end(id, 1)
	if err != nil {
		return nil, nil, err
	}
	defer sim.Close()
	rec := &trace.Recording{}
	sim.Tracer = rec
	var nic *trace.Recording
	if impl.Caps().NICInlets {
		nic = &trace.Recording{}
		sim.NICTracer = nic
	}
	id = tr.begin("core.run", name, op, unit)
	err = sim.RunContext(ctx)
	tr.end(id, float64(sim.M.Instructions()))
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", w.Name, name, err)
	}

	pairs := make([]trace.Pair, len(geoms))
	for i, g := range geoms {
		if pairs[i], err = trace.NewPair(g); err != nil {
			return nil, nil, err
		}
	}
	id = tr.begin("experiments.replay", name, op, unit)
	err = rec.ReplayAllContext(ctx, pairs)
	tr.end(id, float64(rec.Len()*len(geoms)))
	if err != nil {
		return nil, nil, err
	}

	u := &unitResult{
		Program:      w.Name,
		Arg:          w.Arg,
		Impl:         name,
		Instructions: sim.M.Instructions(),
		Counts:       rec.Counts,
		Caches:       make([]geomStats, len(pairs)),
		threads:      sim.Gran.Threads,
		quanta:       sim.Gran.Quanta,
		tpq:          sim.Gran.TPQ(),
		ipt:          sim.Gran.IPT(),
		ipq:          sim.Gran.IPQ(),
	}
	if nic != nil {
		// The two streams partition the single-tracer stream, so their
		// counts sum to what one tracer would have seen.
		for c := range u.Counts.Fetches {
			u.Counts.Fetches[c] += nic.Fetches[c]
			u.Counts.Reads[c] += nic.Reads[c]
			u.Counts.Writes[c] += nic.Writes[c]
		}
	}
	for i, p := range pairs {
		u.Caches[i] = geomStats{p.I.Stats().Misses, p.D.Stats().Misses, p.D.Stats().Writebacks}
	}
	return u, rec, nil
}

func cacheConfig(c api.CacheSpec) cache.Config {
	return cache.Config{SizeBytes: c.SizeKB * 1024, BlockBytes: c.BlockBytes, Assoc: c.Assoc}
}

func unitKey(program string, arg int, impl string) string {
	return fmt.Sprintf("%s/%d/%s", program, arg, impl)
}

// unitSpec names one (workload, backend) unit.
type unitSpec struct {
	w    experiments.Workload
	impl core.Impl
}

// references runs every unit's record→replay reference through the
// paper grid.
func references(ctx context.Context, units []unitSpec) (map[string]*unitResult, error) {
	out := make([]*unitResult, len(units))
	err := forEachCPU(len(units), func(i int) (err error) {
		out[i], _, err = runUnit(ctx, nil, 0, 0, units[i].w, units[i].impl, paperGrid())
		return err
	})
	if err != nil {
		return nil, err
	}
	refs := make(map[string]*unitResult, len(units))
	for _, u := range out {
		refs[unitKey(u.Program, u.Arg, u.Impl)] = u
	}
	return refs, nil
}

// forEachCPU calls fn(0..n-1) on nproc goroutines, each taking the
// next index as it finishes the last, and returns the first error.
func forEachCPU(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
