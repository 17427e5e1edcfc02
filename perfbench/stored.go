package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"reflect"
	"sync"
	"time"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/server"
)

// The first-seen ss unit of sweeps-stored op k. Ops run in epochs of
// ssWindow ops, each epoch against a daemon of its own whose store has
// seen no ss argument. Within an epoch, ops draw without repetition
// from [ssLo, ssLo+ssWindow), stratified so that every ssStrata
// consecutive ops take one argument from each stratum of ssWidth: the
// unit's cost (quadratic in the argument) then has the same
// distribution over any prefix of a run, in every epoch. Set-up
// prepares ssEpochs daemons, room for 1000 ops, about three times what
// a 35-second run completes on a 2-core machine.
const (
	ssLo     = 8
	ssStrata = 20
	ssWidth  = 10
	ssWindow = ssStrata * ssWidth
	ssEpochs = 5
)

// ssArg returns op k's epoch and ss argument under seed.
func ssArg(seed uint64, k int64) (epoch, arg int) {
	e, i := int(k/ssWindow), int(k%ssWindow)
	s, r := i%ssStrata, i/ssStrata
	perm := rand.New(rand.NewPCG(seed, uint64(e*ssStrata+s))).Perm(ssWidth)
	return e, ssLo + s*ssWidth + perm[r]
}

// sweepPenalty is op k's penalty set: fresh per op, so the result
// cache misses, and distinct from the set-up requests' penalties.
func sweepPenalty(k int64) []int { return []int{100 + int(k)} }

// gridRequest is the quick-scale {md, am} sweep over the paper grid
// with per-geometry detail, plus any extra workloads.
func gridRequest(penalties []int, extra ...api.WorkloadSpec) api.SweepRequest {
	req := api.SweepRequest{
		SizesKB: gridSizesKB, Assocs: gridAssocs, BlockBytes: gridBlockBytes,
		Penalties: penalties, Impls: []string{"md", "am"}, Detail: true,
	}
	for _, w := range experiments.QuickWorkloads() {
		req.Workloads = append(req.Workloads, api.WorkloadSpec{Program: w.Name, Arg: w.Arg})
	}
	req.Workloads = append(req.Workloads, extra...)
	return req
}

// sweepsStored sends quick-scale /v1/sweeps to daemons whose recording
// stores (memory + disk) were filled during set-up. Each op adds one
// first-seen ss unit, so 2 of its 14 units record, compact and Put,
// and 12 Get from the store, stream-decode and replay. Set-up builds
// the quick units' references; an ss unit's reference is built by the
// op's check, after the timed phase.
type sweepsStored struct {
	ds     []*daemon // one per epoch
	seed   uint64
	before map[string]float64

	mu   sync.Mutex // guards refs: checks run in parallel
	refs map[string]*unitResult
}

func setupSweepsStored(ctx context.Context, seed uint64, dir string) (bench, error) {
	s := &sweepsStored{seed: seed}
	for e := 0; e < ssEpochs; e++ {
		storeDir, err := os.MkdirTemp(dir, "store-")
		if err != nil {
			s.close()
			return nil, err
		}
		d, err := startDaemon(server.Config{StoreDir: storeDir})
		if err != nil {
			s.close()
			return nil, err
		}
		s.ds = append(s.ds, d)
		if _, _, err := d.submit(ctx, "/v1/sweeps", gridRequest([]int{12, 24, 48})); err != nil {
			s.close()
			return nil, fmt.Errorf("store fill: %w", err)
		}
	}
	var units []unitSpec
	for _, impl := range table2Impls {
		for _, w := range experiments.QuickWorkloads() {
			units = append(units, unitSpec{w, impl})
		}
	}
	var err error
	if s.refs, err = references(ctx, units); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepsStored) clients() int { return 1 }

func (s *sweepsStored) op(ctx context.Context, k int64, tr *tracer) (time.Duration, check, error) {
	e, arg := ssArg(s.seed, k)
	if e >= len(s.ds) {
		return 0, nil, fmt.Errorf("%w: sweeps-stored op %d is past the %d ops set-up prepares first-seen ss units for (raise ssEpochs)",
			errAbort, k, len(s.ds)*ssWindow)
	}
	req := gridRequest(sweepPenalty(k), api.WorkloadSpec{Program: "ss", Arg: arg})
	start := time.Now()
	evs, raw, err := s.ds[e].submit(ctx, "/v1/sweeps", req)
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	if tr != nil {
		streamSpans(tr, k, start, evs)
	}
	return lat, func() (uint64, error) {
		var got api.SweepResult
		if err := json.Unmarshal(raw, &got); err != nil {
			return 0, fmt.Errorf("sweep result: %w", err)
		}
		return s.check(ctx, req, got)
	}, nil
}

// check compares every unit of a sweep document with its reference:
// instructions, granularity, and each geometry's misses, writebacks
// and cycles. It returns the instructions the document covers. An ss
// unit's reference is built the first time its argument is checked.
func (s *sweepsStored) check(ctx context.Context, req api.SweepRequest, got api.SweepResult) (uint64, error) {
	if len(got.Runs) != len(req.Workloads)*len(req.Impls) {
		return 0, fmt.Errorf("sweep document has %d runs, want %d", len(got.Runs), len(req.Workloads)*len(req.Impls))
	}
	var instrs uint64
	for i, run := range got.Runs {
		w, implName := req.Workloads[i/len(req.Impls)], req.Impls[i%len(req.Impls)]
		impl, err := core.ParseImpl(implName)
		if err != nil {
			return 0, err
		}
		key := unitKey(w.Program, w.Arg, impl.Name())
		s.mu.Lock()
		ref := s.refs[key]
		s.mu.Unlock()
		if ref == nil {
			if ref, _, err = runUnit(ctx, nil, 0, 0, experiments.Workload{Name: w.Program, Arg: w.Arg}, impl, paperGrid()); err != nil {
				return 0, err
			}
			s.mu.Lock()
			s.refs[key] = ref
			s.mu.Unlock()
		}
		want := expectedRun(ref, allGeoms(), req.Penalties)
		sum := api.SweepRunSummary{
			Program: want.Program, Arg: want.Arg, Impl: impl.String(), Instructions: want.Instructions,
			TPQ: want.TPQ, IPT: want.IPT, IPQ: want.IPQ, Caches: want.Caches,
		}
		if !reflect.DeepEqual(run, sum) {
			return 0, fmt.Errorf("%s: sweep run differs from the record→replay reference", key)
		}
		instrs += run.Instructions
	}
	return instrs, nil
}

// allGeoms indexes the whole paper grid.
func allGeoms() []int {
	idx := make([]int, len(gridSizesKB)*len(gridAssocs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// counters sums the daemons' /metricz counters.
func (s *sweepsStored) counters(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range s.ds {
		c, err := d.counters(ctx)
		if err != nil {
			return nil, err
		}
		for name, v := range c {
			sum[name] += v
		}
	}
	return sum, nil
}

func (s *sweepsStored) traceStart(ctx context.Context) (err error) {
	s.before, err = s.counters(ctx)
	return err
}

func (s *sweepsStored) traceEnd(ctx context.Context, tr *tracer) error {
	after, err := s.counters(ctx)
	if err != nil {
		return err
	}
	tr.count("tracestore.hit_ratio", ratio(s.before, after, "store.hits", "store.misses"))
	tr.count("server.codecache_hit_ratio", ratio(s.before, after, "codecache.hits", "codecache.misses"))
	tr.count("server.result_hit_ratio", ratio(s.before, after, "results.hits", "results.misses"))
	return nil
}

func (s *sweepsStored) report(io.Writer) {}

func (s *sweepsStored) close() {
	for _, d := range s.ds {
		d.close()
	}
}
