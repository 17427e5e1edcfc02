package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"jmtam/api"
	"jmtam/internal/experiments"
	"jmtam/internal/server"
)

// shardFleet is a coordinator tamsimd that farms sweep units out to
// two worker tamsimds through internal/shard. The workers' recording
// stores are warmed when the fleet starts.
type shardFleet struct {
	coord, w1, w2 *daemon
	ref           api.SweepResult // a non-sharded daemon's document
}

func startShardFleet(ctx context.Context) (*shardFleet, error) {
	s := &shardFleet{}
	var err error
	if s.w1, err = startDaemon(server.Config{}); err != nil {
		return nil, err
	}
	if s.w2, err = startDaemon(server.Config{}); err != nil {
		s.w1.close()
		return nil, err
	}
	if s.coord, err = startDaemon(server.Config{ShardWorkers: []string{s.w1.url(), s.w2.url()}}); err != nil {
		s.w1.close()
		s.w2.close()
		return nil, err
	}
	if err := s.warm(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm fills both workers' stores with the grid's recordings; the
// first worker's document, a non-sharded daemon's, is the reference.
func (s *shardFleet) warm(ctx context.Context) error {
	req := gridRequest([]int{1})
	_, raw, err := s.w1.submit(ctx, "/v1/sweeps", req)
	if err != nil {
		return fmt.Errorf("warm worker: %w", err)
	}
	if _, _, err := s.w2.submit(ctx, "/v1/sweeps", req); err != nil {
		return fmt.Errorf("warm worker: %w", err)
	}
	if err := json.Unmarshal(raw, &s.ref); err != nil {
		return fmt.Errorf("reference document: %w", err)
	}
	// Expected documents are the reference re-marshalled with each op's
	// penalty, which is byte-faithful only if the reference round-trips.
	if again, err := json.Marshal(s.ref); err != nil || !bytes.Equal(again, raw) {
		return fmt.Errorf("reference document does not round-trip through api.SweepResult")
	}
	return nil
}

// expectedSweep is the non-sharded document for the given penalties: only
// the per-geometry cycle counts depend on them.
func expectedSweep(ref api.SweepResult, penalties []int) ([]byte, error) {
	doc := ref
	doc.Runs = make([]api.SweepRunSummary, len(ref.Runs))
	for i, r := range ref.Runs {
		r.Caches = append([]api.CacheResult(nil), r.Caches...)
		for g := range r.Caches {
			c := &r.Caches[g]
			c.Cycles = nil
			for _, p := range penalties {
				c.Cycles = append(c.Cycles, api.CycleCount{Penalty: p, Cycles: r.Instructions + uint64(p)*(c.IMisses+c.DMisses)})
			}
		}
		doc.Runs[i] = r
	}
	return json.Marshal(doc)
}

// shardProbeOps is how many sharded sweeps the probe sends.
const shardProbeOps = 40

// shardProbe times the sharded sweep path, which no workload drives
// end to end: it sends shardProbeOps quick-scale grids, each with a
// fresh penalty, to a fresh shard fleet, and requires each document to
// be byte-identical to a non-sharded daemon's. It records
// shard.overhead_ms (median sharded latency minus the median of five
// Sweep.ExecuteContext runs of the same grid at the same parallelism)
// and shard.attempts_per_unit, and returns how many sweeps it sent and
// how many failed.
func shardProbe(ctx context.Context, tr *tracer) (attempted, failed int, err error) {
	s, err := startShardFleet(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	before, err := s.coord.counters(ctx)
	if err != nil {
		return 0, 0, err
	}
	var sharded []float64
	for k := int64(0); k < shardProbeOps; k++ {
		req := gridRequest(sweepPenalty(k))
		start := time.Now()
		_, raw, err := s.coord.submit(ctx, "/v1/sweeps", req)
		sharded = append(sharded, float64(time.Since(start).Nanoseconds())/1e6)
		if err == nil {
			err = checkSharded(s.ref, req.Penalties, raw)
		}
		if err != nil {
			reportFailure(k, fmt.Errorf("sharded sweep: %w", err))
			failed++
		}
	}
	after, err := s.coord.counters(ctx)
	if err != nil {
		return 0, 0, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	if n := delta("shard.shards"); n > 0 {
		attempts := delta("shard.remote") + delta("shard.retries") + delta("shard.requeues") + delta("shard.hedges") + delta("shard.local")
		tr.count("shard.attempts_per_unit", attempts/n)
	}
	direct := experiments.DefaultSweep(experiments.QuickWorkloads())
	direct.Impls = table2Impls
	direct.Parallelism = runtime.NumCPU()
	var ms []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := direct.ExecuteContext(ctx); err != nil {
			return 0, 0, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	tr.count("shard.overhead_ms", median(sharded)-median(ms))
	return shardProbeOps, failed, nil
}

// checkSharded requires a sharded document to be byte-identical to the
// non-sharded daemon's for the same penalties.
func checkSharded(ref api.SweepResult, penalties []int, raw []byte) error {
	want, err := expectedSweep(ref, penalties)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, want) {
		return fmt.Errorf("sharded document differs from the non-sharded daemon's")
	}
	return nil
}

func (s *shardFleet) close() {
	s.coord.close()
	s.w1.close()
	s.w2.close()
}
