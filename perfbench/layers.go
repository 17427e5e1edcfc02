package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"jmtam/internal/cache"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
	"jmtam/internal/trace"
	"jmtam/internal/tracestore"
)

// probe times the layer primitives directly, on the same fixed inputs
// in every traced run: every backend over the quick-scale programs
// (core), the quick mmt/am stream through 8K caches (cache), the
// quick md/am units' replay, encoding and decoding (experiments,
// trace), and a fresh disk-tier store holding their blobs
// (tracestore). Each call is a span of the probe op.
func probe(ctx context.Context, tr *tracer, dir string) error {
	const rounds = 3
	grid := paperGrid()
	var recs []*trace.Recording
	var descs []tracestore.Desc
	var mmtAM *trace.Recording
	for round := 0; round < rounds; round++ {
		var instrs uint64
		for _, b := range core.Backends() {
			// Only MD and AM units replay: they are the sweep's units.
			var geoms []cache.Config
			if b.Impl == core.ImplMD || b.Impl == core.ImplAM {
				geoms = grid
			}
			for _, w := range experiments.QuickWorkloads() {
				u, rec, err := runUnit(ctx, tr, probeOp, 0, w, b.Impl, geoms)
				if err != nil {
					return err
				}
				instrs += u.Instructions
				if round == 0 && geoms != nil {
					recs = append(recs, rec)
					descs = append(descs, tracestore.Desc{Program: w.Name, Arg: w.Arg, Impl: b.Impl.String(), Nodes: 1})
					if w.Name == "mmt" && b.Impl == core.ImplAM {
						mmtAM = rec
					}
				}
			}
		}
		if round == 0 {
			tr.count("core.instructions", float64(instrs))
		}
	}
	if err := probeCache(tr, mmtAM); err != nil {
		return err
	}
	blobs, err := probeTrace(ctx, tr, recs, grid)
	if err != nil {
		return err
	}
	return probeStore(tr, filepath.Join(dir, "probe-store"), descs, blobs)
}

// probeCache replays the recorded stream's fetch and data partitions
// through 8K I/D caches of each associativity with the batch kernels
// replay uses.
func probeCache(tr *tracer, rec *trace.Recording) error {
	var fetch, data []uint32
	rec.Do(func(k trace.Kind, addr uint32) {
		switch k {
		case trace.KindFetch:
			fetch = append(fetch, addr)
		case trace.KindRead:
			data = append(data, addr)
		default:
			data = append(data, addr|cache.RefWrite)
		}
	})
	for _, a := range gridAssocs {
		cfg := cache.Config{SizeBytes: 8 << 10, BlockBytes: gridBlockBytes, Assoc: a}
		for rep := 0; rep < 5; rep++ {
			ic, err := cache.New(cfg)
			if err != nil {
				return err
			}
			dc := cache.MustNew(cfg)
			id := tr.begin("cache.access_batch", fmt.Sprintf("a%d", a), probeOp, 0)
			ic.AccessBatchFetch(fetch)
			dc.AccessBatch(data)
			tr.end(id, float64(len(fetch)+len(data)))
		}
	}
	return nil
}

// probeTrace encodes each recording, decodes the blobs and
// stream-replays them through the grid. It returns the blobs.
func probeTrace(ctx context.Context, tr *tracer, recs []*trace.Recording, grid []cache.Config) ([][]byte, error) {
	blobs := make([][]byte, len(recs))
	var packed, compact int
	for i, rec := range recs {
		for rep := 0; rep < 3; rep++ {
			id := tr.begin("trace.compact", "", probeOp, 0)
			blobs[i] = rec.Compact()
			tr.end(id, float64(4*rec.Len()))
		}
		info, err := trace.CompactStat(blobs[i])
		if err != nil {
			return nil, err
		}
		packed += info.PackedBytes
		compact += info.CompactBytes
		for rep := 0; rep < 3; rep++ {
			id := tr.begin("trace.decode", "", probeOp, 0)
			rd, err := trace.NewReader(bytes.NewReader(blobs[i]))
			if err != nil {
				return nil, err
			}
			for {
				if _, err := rd.Next(); err == io.EOF {
					break
				} else if err != nil {
					return nil, err
				}
			}
			tr.end(id, float64(rd.PackedBytes()))
		}
		pairs := make([]trace.Pair, len(grid))
		for g, cfg := range grid {
			if pairs[g], err = trace.NewPair(cfg); err != nil {
				return nil, err
			}
		}
		id := tr.begin("trace.stream_replay", "", probeOp, 0)
		rd, err := trace.NewReader(bytes.NewReader(blobs[i]))
		if err == nil {
			err = rd.ReplayAllContext(ctx, pairs)
		}
		tr.end(id, float64(rec.Len()*len(grid)))
		if err != nil {
			return nil, err
		}
	}
	tr.count("trace.compact_ratio", float64(compact)/float64(packed))
	return blobs, nil
}

// probeStore puts the blobs into a fresh disk-tier store, gets them
// back from its memory tier, then from a disk-only store on the same
// directory.
func probeStore(tr *tracer, dir string, descs []tracestore.Desc, blobs [][]byte) error {
	st, err := tracestore.New(dir, 0, nil)
	if err != nil {
		return err
	}
	disk, err := tracestore.New(dir, -1, nil)
	if err != nil {
		return err
	}
	for i, d := range descs {
		key := d.Key()
		id := tr.begin("tracestore.put", "", probeOp, 0)
		err := st.Put(key, blobs[i])
		tr.end(id, float64(len(blobs[i])))
		if err != nil {
			return err
		}
		for _, s := range []struct {
			name string
			st   *tracestore.Store
		}{{"tracestore.get_mem", st}, {"tracestore.get_disk", disk}} {
			for rep := 0; rep < 3; rep++ {
				id := tr.begin(s.name, "", probeOp, 0)
				got, ok := s.st.Get(key)
				tr.end(id, float64(len(got)))
				if !ok || !bytes.Equal(got, blobs[i]) {
					return fmt.Errorf("tracestore: %s of %s returned a different blob", s.name, key)
				}
			}
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans, samples and
// counters of a traced run. A layer metric comes from the traced ops'
// own spans where they time that call (table2-paper's units), and from
// the probe's otherwise. A metric the run's workload does not exercise
// (a server metric on table2-paper, say) reads 0.
func layerMetrics(tr *tracer) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	self := selfTimes(tr.spans)
	type acc struct {
		self, work float64
		durs       []float64
	}
	fromOps, probed := map[string]*acc{}, map[string]*acc{}
	for i, s := range tr.spans {
		if s.Name == "experiments.replay" && s.Work == 0 {
			continue
		}
		m := fromOps
		if s.Op == probeOp {
			m = probed
		}
		a := m[s.Name+"|"+s.Attr]
		if a == nil {
			a = &acc{}
			m[s.Name+"|"+s.Attr] = a
		}
		a.self += float64(self[i])
		a.work += s.Work
		a.durs = append(a.durs, float64(s.End-s.Start))
	}
	get := func(name, attr string) *acc {
		if a := fromOps[name+"|"+attr]; a != nil {
			return a
		}
		if a := probed[name+"|"+attr]; a != nil {
			return a
		}
		return &acc{}
	}
	perNS := func(a *acc) float64 { // ns per unit of work
		if a.work == 0 {
			return 0
		}
		return a.self / a.work
	}
	perSec := func(a *acc) float64 { // work units per second
		if a.self == 0 {
			return 0
		}
		return a.work / a.self * 1e9
	}
	all := func(name string) *acc { // summed over attributes
		sum := func(m map[string]*acc) *acc {
			t := &acc{}
			for k, a := range m {
				if strings.HasPrefix(k, name+"|") {
					t.self += a.self
					t.work += a.work
					t.durs = append(t.durs, a.durs...)
				}
			}
			return t
		}
		if t := sum(fromOps); len(t.durs) > 0 {
			return t
		}
		return sum(probed)
	}

	m := map[string]float64{}
	for _, b := range core.Backends() {
		m["core.sim_minstr_per_s."+b.Name] = perSec(get("core.run", b.Name)) / 1e6
	}
	m["core.newsim_us"] = median(all("core.newsim").durs) / 1e3
	m["core.compile_ms"] = median(all("core.compile").durs) / 1e6
	for _, a := range gridAssocs {
		m[fmt.Sprintf("cache.ns_per_ref.a%d", a)] = perNS(get("cache.access_batch", fmt.Sprintf("a%d", a)))
	}
	m["experiments.replay_ns_per_ref_geom"] = perNS(all("experiments.replay"))
	m["experiments.record_share"], m["experiments.critical_path_ms"] = unitShares(tr.spans, self)
	m["trace.encode_mb_per_s"] = perSec(get("trace.compact", "")) / 1e6
	m["trace.decode_mb_per_s"] = perSec(get("trace.decode", "")) / 1e6
	m["trace.stream_replay_ns_per_ref_geom"] = perNS(get("trace.stream_replay", ""))
	m["tracestore.get_mem_us"] = median(get("tracestore.get_mem", "").durs) / 1e3
	m["tracestore.get_disk_us"] = median(get("tracestore.get_disk", "").durs) / 1e3
	m["tracestore.put_ms"] = median(get("tracestore.put", "").durs) / 1e6
	for name, v := range tr.counters {
		m[name] = v
	}
	if qs := tr.samples["server.queue_ms"]; len(qs) > 0 {
		var sum float64
		for _, q := range qs {
			sum += q
		}
		m["server.queue_ms"] = sum / float64(len(qs))
	}
	m["server.overhead_ms"] = median(tr.samples["server.overhead_ms"])
	return m
}

// unitShares returns the record share of record+replay time summed
// over replayed units, and the median over ops of the slowest unit's
// record+replay time in ms. Traced ops' units are used when the run
// has any (table2-paper); otherwise the probe's.
func unitShares(spans []span, self []int64) (share, criticalMS float64) {
	type unit struct {
		op             int64
		record, replay float64
		replayed       bool
	}
	units := map[int32]*unit{}
	opUnits := false
	for _, s := range spans {
		if s.Name == "experiments.unit" {
			units[s.ID] = &unit{op: s.Op}
			opUnits = opUnits || s.Op != probeOp
		}
	}
	for i, s := range spans {
		u := units[s.Parent]
		if u == nil {
			continue
		}
		switch s.Name {
		case "core.run":
			u.record += float64(self[i])
		case "experiments.replay":
			u.replay += float64(self[i])
			u.replayed = s.Work > 0
		}
	}
	var rec, rep float64
	slowest := map[int64]float64{}
	for _, u := range units {
		if !u.replayed || (u.op == probeOp) == opUnits {
			continue
		}
		rec += u.record
		rep += u.replay
		slowest[u.op] = max(slowest[u.op], u.record+u.replay)
	}
	if rec+rep == 0 {
		return 0, 0
	}
	var paths []float64
	for _, v := range slowest {
		paths = append(paths, v/1e6)
	}
	return rec / (rec + rep), median(paths)
}
