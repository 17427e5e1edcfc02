package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"time"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/programs"
	"jmtam/internal/server"
	"jmtam/internal/trace"
)

// runsServe sends /v1/runs jobs from nproc closed-loop clients to one
// in-process tamsimd. Requests come from a seeded stream over the
// quick-scale programs × every registry backend, each with 1-4 random
// paper-grid geometries and one random penalty, so the result cache
// almost never hits and, after set-up, the code cache mostly does (it
// holds 32 artefacts; the stream cycles through 36).
type runsServe struct {
	d      *daemon
	seed   uint64
	refs   map[string]*unitResult    // program/arg/backend → 24-geometry reference
	comps  map[string]*core.Compiled // the direct replica's compile cache
	before map[string]float64

	mu     sync.Mutex
	traced []tracedRun // the traced phase's requests, replicated after it
}

type tracedRun struct {
	req api.RunRequest
	lat time.Duration
}

// runsBlock is the number of (program, backend) pairs. Each block of
// runsBlock consecutive ops sends every pair once, so every run, which
// ends on a block boundary, has the same mix.
var runsBlock = len(experiments.QuickWorkloads()) * len(core.Backends())

// runsRequest is op k's request under seed, and the paper-grid index
// of each of its geometries.
func runsRequest(seed uint64, k int64) (api.RunRequest, []int) {
	ws, bs := experiments.QuickWorkloads(), core.Backends()
	block, pos := k/int64(runsBlock), k%int64(runsBlock)
	pair := rand.New(rand.NewPCG(seed, ^uint64(block))).Perm(runsBlock)[pos]
	w, b := ws[pair/len(bs)], bs[pair%len(bs)]
	r := rand.New(rand.NewPCG(seed, uint64(k)))
	grid := paperGrid()
	idx := r.Perm(len(grid))[:1+r.IntN(4)]
	req := api.RunRequest{Program: w.Name, Arg: w.Arg, Impl: b.Name, Penalties: []int{1 + r.IntN(96)}}
	for _, i := range idx {
		req.Caches = append(req.Caches, api.CacheSpec{SizeKB: grid[i].SizeBytes / 1024, BlockBytes: grid[i].BlockBytes, Assoc: grid[i].Assoc})
	}
	return req, idx
}

func setupRunsServe(ctx context.Context, seed uint64, _ string) (bench, error) {
	d, err := startDaemon(server.Config{})
	if err != nil {
		return nil, err
	}
	rs := &runsServe{d: d, seed: seed, comps: map[string]*core.Compiled{}}
	var units []unitSpec
	for _, w := range experiments.QuickWorkloads() {
		for _, b := range core.Backends() {
			units = append(units, unitSpec{w, b.Impl})
			spec, err := programs.ByName(w.Name)
			if err != nil {
				d.close()
				return nil, err
			}
			c, err := core.Compile(b.Impl, spec.Build(w.Arg), core.Options{})
			if err != nil {
				d.close()
				return nil, err
			}
			rs.comps[unitKey(w.Name, w.Arg, b.Name)] = c
		}
	}
	if rs.refs, err = references(ctx, units); err != nil {
		d.close()
		return nil, err
	}
	// One job per (program, backend) fills the daemon's code cache.
	for _, u := range units {
		req := api.RunRequest{Program: u.w.Name, Arg: u.w.Arg, Impl: u.impl.Name()}
		if _, _, err := d.submit(ctx, "/v1/runs", req); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return rs, nil
}

func (rs *runsServe) clients() int { return runtime.NumCPU() }

func (rs *runsServe) op(ctx context.Context, k int64, tr *tracer) (time.Duration, check, error) {
	req, idx := runsRequest(rs.seed, k)
	start := time.Now()
	evs, raw, err := rs.d.submit(ctx, "/v1/runs", req)
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	if tr != nil {
		streamSpans(tr, k, start, evs)
		rs.mu.Lock()
		rs.traced = append(rs.traced, tracedRun{req, lat})
		rs.mu.Unlock()
	}
	// The check needs no reference built after set-up and costs about 1%
	// of an op, so it runs here: holding every document until the phase
	// ends would add to the measured peak memory.
	var got api.RunResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return lat, nil, fmt.Errorf("run result: %w", err)
	}
	want := expectedRun(rs.refs[unitKey(req.Program, req.Arg, req.Impl)], idx, req.Penalties)
	am := expectedRun(rs.refs[unitKey(req.Program, req.Arg, core.ImplAM.Name())], idx, req.Penalties)
	err = checkRun(want, am, got)
	return lat, func() (uint64, error) { return got.Instructions, err }, nil
}

// replica performs the request's work directly in process (compile
// cache lookup, simulation, replay, marshal) and returns its duration.
func (rs *runsServe) replica(ctx context.Context, req api.RunRequest) (time.Duration, error) {
	start := time.Now()
	c := rs.comps[unitKey(req.Program, req.Arg, req.Impl)]
	spec, err := programs.ByName(req.Program)
	if err != nil {
		return 0, err
	}
	prog := spec.Build(req.Arg)
	sim, err := c.NewSim(prog, core.Options{MaxInstructions: 2_000_000_000})
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	rec := &trace.Recording{}
	sim.Tracer = rec
	if err := sim.RunContext(ctx); err != nil {
		return 0, err
	}
	pairs := make([]trace.Pair, len(req.Caches))
	for i, cs := range req.Caches {
		if pairs[i], err = trace.NewPair(cacheConfig(cs)); err != nil {
			return 0, err
		}
	}
	if err := rec.ReplayAllContext(ctx, pairs); err != nil {
		return 0, err
	}
	res := api.RunResult{Program: req.Program, Arg: req.Arg, Impl: req.Impl, Instructions: sim.M.Instructions()}
	for i, p := range pairs {
		res.Caches = append(res.Caches, api.CacheResult{CacheSpec: req.Caches[i],
			IMisses: p.I.Stats().Misses, DMisses: p.D.Stats().Misses, Writebacks: p.D.Stats().Writebacks})
	}
	if _, err := json.Marshal(res); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// expectedRun is the /v1/runs document the reference predicts for a
// request over the given paper-grid geometries and penalties.
func expectedRun(u *unitResult, idx []int, penalties []int) api.RunResult {
	impl, _ := core.ParseImpl(u.Impl) // u.Impl came from the registry
	res := api.RunResult{
		Program: u.Program, Arg: u.Arg, Impl: impl.String(),
		Instructions: u.Instructions,
		Reads:        u.Counts.TotalReads(), Writes: u.Counts.TotalWrites(),
		Threads: u.threads, Quanta: u.quanta,
		TPQ: u.tpq, IPT: u.ipt, IPQ: u.ipq,
	}
	grid := paperGrid()
	for _, i := range idx {
		g, c := grid[i], u.Caches[i]
		cr := api.CacheResult{
			CacheSpec: api.CacheSpec{SizeKB: g.SizeBytes / 1024, BlockBytes: g.BlockBytes, Assoc: g.Assoc},
			IMisses:   c.IMisses, DMisses: c.DMisses, Writebacks: c.Writebacks,
		}
		for _, p := range penalties {
			cr.Cycles = append(cr.Cycles, api.CycleCount{Penalty: p, Cycles: u.Instructions + uint64(p)*(c.IMisses+c.DMisses)})
		}
		res.Caches = append(res.Caches, cr)
	}
	return res
}

// checkRun compares a /v1/runs document with the reference's. An
// offload job whose document matches its reference except that its
// per-geometry statistics are exactly AM's reference ones (am, for the
// same request) is the documented divergence: /v1/runs records offload
// with one tracer, so it reports AM's misses where tamsim reports the
// compute engine's. Any other mismatch is an ordinary failure.
func checkRun(want, am, got api.RunResult) error {
	if reflect.DeepEqual(want, got) {
		return nil
	}
	err := fmt.Errorf("%s/%d/%s: /v1/runs document differs from the record→replay reference", want.Program, want.Arg, want.Impl)
	w, g := want, got
	w.Caches, g.Caches = nil, nil
	if want.Impl != core.ImplOffload.String() || !reflect.DeepEqual(w, g) || !reflect.DeepEqual(got.Caches, am.Caches) {
		return err
	}
	return fmt.Errorf("%w (offload reports AM's misses): %v", errKnownDivergence, err)
}

// streamSpans cuts an op's client-side spans at the arrival times of
// its stream events. Span "stream.<type>" covers the interval that ends
// when an event of that type arrives: stream.started is the queue wait,
// stream.simulated the simulation, each stream.geometry one geometry's
// replay, each stream.run the wait for the next sweep unit (attributed
// with where its recording came from), stream.result the rest.
func streamSpans(tr *tracer, k int64, start time.Time, evs []streamEvent) {
	if len(evs) == 0 {
		return
	}
	root := tr.add("op", "", k, 0, start, evs[len(evs)-1].at)
	prev := start
	for _, e := range evs {
		attr := e.Source
		switch e.Type {
		case api.EventStarted:
			tr.sample("server.queue_ms", float64(e.QueueMS))
		case api.EventShard:
			attr = e.Event.Event
		}
		tr.add("stream."+e.Type, attr, k, root, prev, e.at)
		prev = e.at
	}
}

func (rs *runsServe) traceStart(ctx context.Context) (err error) {
	rs.before, err = rs.d.counters(ctx)
	return err
}

func (rs *runsServe) traceEnd(ctx context.Context, tr *tracer) error {
	after, err := rs.d.counters(ctx)
	if err != nil {
		return err
	}
	tr.count("server.codecache_hit_ratio", ratio(rs.before, after, "codecache.hits", "codecache.misses"))
	tr.count("server.result_hit_ratio", ratio(rs.before, after, "results.hits", "results.misses"))
	tr.count("tracestore.hit_ratio", ratio(rs.before, after, "store.hits", "store.misses"))
	// Replicas run after the traced phase, so they neither load the
	// daemon nor slow the clients while their requests are timed. An
	// even sample of at most replicaSample requests bounds their cost.
	const replicaSample = 500
	for i := 0; i < len(rs.traced); i += len(rs.traced)/replicaSample + 1 {
		t := rs.traced[i]
		replica, err := rs.replica(ctx, t.req)
		if err != nil {
			return err
		}
		tr.sample("server.overhead_ms", float64((t.lat-replica).Nanoseconds())/1e6)
	}
	return nil
}

func (rs *runsServe) report(io.Writer) {}
func (rs *runsServe) close()           { rs.d.close() }
