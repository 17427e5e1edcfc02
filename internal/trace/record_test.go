package trace

import (
	"bytes"
	"context"
	"testing"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	addrs := []uint32{
		0, 4, 64, mem.UserCodeBase, mem.SysDataBase, mem.HeapBase,
		mem.TopOfMemory - 4,
		1<<31 - 4,   // highest address below the sign bit
		0x8000_0000, // sign bit set
		0xFFFF_FFFC, // 30-bit boundary: addr>>2 == 0x3FFF_FFFF
		0x5555_5554, // alternating bits, word-aligned
	}
	for _, k := range []Kind{KindFetch, KindRead, KindWrite} {
		for _, a := range addrs {
			w := Encode(k, a)
			gk, ga := Decode(w)
			if gk != k || ga != a {
				t.Errorf("Encode(%d, %#x) -> Decode = (%d, %#x)", k, a, gk, ga)
			}
		}
	}
}

func TestRecordingCountsMatchCollector(t *testing.T) {
	var rec Recording
	var col Collector
	for i := uint32(0); i < 100; i++ {
		for _, tr := range []machineTracer{&rec, &col} {
			tr.Fetch(mem.UserCodeBase + 4*i)
			tr.Read(mem.HeapBase + 4*i)
			tr.Write(mem.FrameBase + 4*i)
			tr.Read(mem.SysDataBase + 4*(i%8))
		}
	}
	if rec.Counts != col.Counts {
		t.Errorf("recording counts %+v != collector counts %+v", rec.Counts, col.Counts)
	}
	if rec.Len() != 400 {
		t.Errorf("Len = %d, want 400", rec.Len())
	}
}

// machineTracer mirrors machine.Tracer without importing the package.
type machineTracer interface {
	Fetch(uint32)
	Read(uint32)
	Write(uint32)
}

func TestRecordingChunkRollover(t *testing.T) {
	var rec Recording
	n := chunkWords*2 + 17
	for i := 0; i < n; i++ {
		rec.Read(uint32(4 * i))
	}
	if rec.Len() != n {
		t.Fatalf("Len = %d, want %d", rec.Len(), n)
	}
	if rec.Bytes() < 4*n {
		t.Errorf("Bytes = %d, below payload %d", rec.Bytes(), 4*n)
	}
	i := 0
	rec.Do(func(k Kind, addr uint32) {
		if k != KindRead || addr != uint32(4*i) {
			t.Fatalf("ref %d = (%d, %#x), want (KindRead, %#x)", i, k, addr, 4*i)
		}
		i++
	})
	if i != n {
		t.Errorf("Do visited %d refs, want %d", i, n)
	}
}

// TestReplayMatchesInlineFanOut drives identical streams through an
// inline Collector (per-reference Access) and through both replay
// paths, and requires identical cache statistics. Besides a synthetic
// stream with reuse, conflict misses and dirty evictions, it covers the
// shapes the replay kernel's same-block collapse must get right: runs
// across the replay-block and chunk edges, read→write and write→read
// runs within one block, and a group mixing block sizes and
// associativities.
func TestReplayMatchesInlineFanOut(t *testing.T) {
	var synthetic []ref
	for i := uint32(0); i < 3000; i++ {
		synthetic = append(synthetic,
			ref{KindFetch, mem.UserCodeBase + 4*(i%700)},
			ref{KindRead, mem.HeapBase + 64*(i%50)})
		if i%3 == 0 {
			synthetic = append(synthetic, ref{KindWrite, mem.FrameBase + 64*(i%90)})
		}
		if i%7 == 0 {
			synthetic = append(synthetic, ref{KindRead, mem.HeapBase + 1024*i%0x10000})
		}
	}
	for _, tc := range []struct {
		name string
		refs []ref
	}{
		{"synthetic", synthetic},
		{"edges", edgeRefs()},
		{"random", randomRefs(11, chunkWords+3*replayBlockWords)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkReplayExact(t, tc.refs, mixedGrid) })
	}
}

// mixedGrid is one replay group mixing 8, 32 and 64 B blocks with 1-,
// 2-, 4- and 8-way sets, so same-block repeats are judged at the 8 B
// granularity while most members have larger blocks.
var mixedGrid = []cache.Config{
	{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
	{SizeBytes: 2048, BlockBytes: 32, Assoc: 2},
	{SizeBytes: 8192, BlockBytes: 8, Assoc: 4},
	{SizeBytes: 8192, BlockBytes: 64, Assoc: 8},
	{SizeBytes: 512, BlockBytes: 8, Assoc: 1},
	{SizeBytes: 4096, BlockBytes: 64, Assoc: 4},
}

// edgeRefs builds a stream whose same-block runs straddle replay-block
// and chunk edges. At each edge a data run reads one block just before
// the edge and writes it just after, followed by read→write,
// write→read and write→write runs; conflicting reads 4 KB apart (a
// multiple of every mixedGrid member's set span) then evict the block
// from every geometry, so a write flag lost across the edge shows as a
// missing writeback. Fetches wrapping through 8 KB of code pad the
// stream and form fetch runs across the same edges.
func edgeRefs() []ref {
	var out []ref
	pc := func() uint32 { return 4 * uint32(len(out)%2048) }
	padTo := func(n int) {
		for len(out) < n {
			out = append(out, ref{KindFetch, pc()})
		}
	}
	for i, edge := range []int{replayBlockWords, 2 * replayBlockWords, chunkWords, chunkWords + replayBlockWords} {
		b := 0x2000 + uint32(i)*0x100
		padTo(edge - 2)
		out = append(out,
			ref{KindRead, b}, ref{KindRead, b + 4}, // before the edge
			ref{KindWrite, b}, ref{KindRead, b + 4}, // after it
			ref{KindFetch, pc()}, ref{KindFetch, pc()},
			ref{KindRead, b + 0x40}, ref{KindWrite, b + 0x44},
			ref{KindWrite, b + 0x80}, ref{KindRead, b + 0x84},
			ref{KindWrite, b + 0xC0}, ref{KindWrite, b + 0xC4})
		for k := uint32(1); k <= 9; k++ {
			for off := uint32(0); off < 0x100; off += 0x40 {
				out = append(out, ref{KindRead, b + off + k*0x1000})
			}
		}
	}
	padTo(len(out) + 100)
	return out
}

// checkReplayExact replays refs through fresh pairs of every geometry
// with Recording.ReplayAll and with Reader.ReplayAllContext over the
// compacted recording, and requires every cache.Stats field, Accesses
// included, to equal per-reference Access through an inline Collector.
func checkReplayExact(t testing.TB, refs []ref, cfgs []cache.Config) {
	t.Helper()
	var col Collector
	for _, cfg := range cfgs {
		if _, err := col.AddPair(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range refs {
		switch x.k {
		case KindFetch:
			col.Fetch(x.addr)
		case KindRead:
			col.Read(x.addr)
		default:
			col.Write(x.addr)
		}
	}
	rec := record(refs)
	if rec.Counts != col.Counts {
		t.Fatalf("counts diverged: %+v vs %+v", rec.Counts, col.Counts)
	}
	fresh := func() []Pair {
		pairs := make([]Pair, len(cfgs))
		for i, cfg := range cfgs {
			p, err := NewPair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pairs[i] = p
		}
		return pairs
	}
	direct, streamed := fresh(), fresh()
	rec.ReplayAll(direct)
	rd, err := NewReader(bytes.NewReader(rec.Compact()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.ReplayAllContext(context.Background(), streamed); err != nil {
		t.Fatal(err)
	}
	for path, pairs := range map[string][]Pair{"Recording.ReplayAll": direct, "Reader.ReplayAllContext": streamed} {
		for i, cfg := range cfgs {
			want := col.Pairs[i]
			if pairs[i].I.Stats() != want.I.Stats() {
				t.Errorf("%s %v: I stats %+v, per-reference Access %+v", path, cfg, pairs[i].I.Stats(), want.I.Stats())
			}
			if pairs[i].D.Stats() != want.D.Stats() {
				t.Errorf("%s %v: D stats %+v, per-reference Access %+v", path, cfg, pairs[i].D.Stats(), want.D.Stats())
			}
		}
	}
}

// TestReplayAllMatchesReplay drives the vectorized multi-pair kernel
// over a stream crossing several chunk and replay-block boundaries and
// requires every pair's statistics to equal per-reference Access.
func TestReplayAllMatchesReplay(t *testing.T) {
	var refs []ref
	n := uint32(chunkWords + replayBlockWords + 123)
	for i := uint32(0); i < n; i++ {
		refs = append(refs,
			ref{KindFetch, mem.UserCodeBase + 4*(i%3000)},
			ref{KindRead, mem.HeapBase + 64*(i%777)})
		if i%4 == 0 {
			refs = append(refs, ref{KindWrite, mem.FrameBase + 64*(i%222)})
		}
	}
	checkReplayExact(t, refs, []cache.Config{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 2048, BlockBytes: 32, Assoc: 2},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 4},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 8},
	})
}

func TestReplayPairRejectsBadGeometry(t *testing.T) {
	var rec Recording
	rec.Read(mem.HeapBase)
	if _, err := rec.ReplayPair(cache.Config{SizeBytes: 100, BlockBytes: 64, Assoc: 1}); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestReplaySampledMatchesReplay(t *testing.T) {
	var rec Recording
	for i := uint32(0); i < 5000; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%700))
		rec.Read(mem.HeapBase + 4*(i%900))
		if i%3 == 0 {
			rec.Write(mem.FrameBase + 4*(i%500))
		}
	}
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	want, err := rec.ReplayPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	var iSum, dSum, lastInstr uint64
	rec.ReplaySampled(got, 1000, func(instrs, iMiss, dMiss uint64) {
		samples++
		iSum += iMiss
		dSum += dMiss
		if instrs < lastInstr {
			t.Errorf("sample timestamps not monotone: %d after %d", instrs, lastInstr)
		}
		lastInstr = instrs
	})
	if got.I.Stats() != want.I.Stats() || got.D.Stats() != want.D.Stats() {
		t.Errorf("sampled replay stats differ: I %+v vs %+v, D %+v vs %+v",
			got.I.Stats(), want.I.Stats(), got.D.Stats(), want.D.Stats())
	}
	if iSum != want.I.Stats().Misses || dSum != want.D.Stats().Misses {
		t.Errorf("sample sums (%d, %d) != total misses (%d, %d)",
			iSum, dSum, want.I.Stats().Misses, want.D.Stats().Misses)
	}
	if samples < 5 {
		t.Errorf("only %d samples for 5000 fetches at every=1000", samples)
	}
}

func TestMissDensityTrackEmitsCounters(t *testing.T) {
	var rec Recording
	for i := uint32(0); i < 3000; i++ {
		rec.Fetch(mem.UserCodeBase + 4*(i%700))
		rec.Read(mem.HeapBase + 4*(i%900))
	}
	b := obs.NewEventBuffer()
	cfg := cache.Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	p, err := rec.MissDensityTrack(b, 3, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Misses() == 0 {
		t.Fatal("no misses; test data too small")
	}
	var counters int
	for _, e := range b.Events() {
		if e.Ph != obs.PhCounter {
			t.Errorf("unexpected phase %c", e.Ph)
			continue
		}
		if e.Pid != 3 {
			t.Errorf("pid = %d, want 3", e.Pid)
		}
		counters++
	}
	// Two series (I and D) per sample, 3 full samples for 3000 fetches.
	if counters != 6 {
		t.Errorf("got %d counter events, want 6", counters)
	}
}
