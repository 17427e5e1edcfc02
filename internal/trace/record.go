package trace

import (
	"context"
	"errors"
	"math"
	"math/bits"

	"jmtam/internal/cache"
	"jmtam/internal/mem"
	"jmtam/internal/obs"
)

// Reference kinds in a recorded trace.
type Kind uint8

// The three reference kinds the execution engine produces.
const (
	KindFetch Kind = 0
	KindRead  Kind = 1
	KindWrite Kind = 2
)

// Packed-word layout: the kind occupies the top two bits, the
// word-aligned byte address (shifted right by two) the low thirty.
// Every address the engine produces is word-aligned (package mem traps
// unaligned data access and instruction addresses are word-indexed), so
// the two dropped bits are always zero and any 32-bit address
// round-trips exactly.
const (
	kindShift = 30
	addrMask  = 1<<kindShift - 1
)

// Encode packs one reference into a trace word.
func Encode(k Kind, addr uint32) uint32 {
	return uint32(k)<<kindShift | (addr >> 2 & addrMask)
}

// Decode unpacks a trace word.
func Decode(w uint32) (Kind, uint32) {
	return Kind(w >> kindShift), w << 2 & (addrMask << 2)
}

// chunkWords sizes the recording's append buffers: 64K references
// (256 KB) per chunk keeps growth allocation-free in the simulator's
// hot loop while bounding slack to one chunk.
const chunkWords = 1 << 16

// Recording is a compact in-memory reference trace. It implements
// machine.Tracer, so a simulation records its stream by running with a
// Recording attached; Replay then streams the recording through a cache
// pair. Recording once and replaying per geometry turns the N-geometry
// fan-out into N independent, parallelizable passes instead of N
// synchronous Access calls per reference inside the simulator loop.
//
// Each reference costs four bytes ({kind:2, addr:30} packed words in
// chunked append-only buffers); Counts are accumulated at record time
// exactly as Collector does, so a Recording is a drop-in source for the
// §3.1 reference-class statistics.
type Recording struct {
	Counts
	full [][]uint32 // completed chunks
	tail []uint32   // active chunk, cap chunkWords
}

func (r *Recording) push(k Kind, addr uint32) {
	r.pushWord(Encode(k, addr))
}

// pushWord appends one already-packed trace word, maintaining the
// standard chunk layout. Counts are the caller's responsibility.
func (r *Recording) pushWord(w uint32) {
	if len(r.tail) == cap(r.tail) {
		if r.tail != nil {
			r.full = append(r.full, r.tail)
		}
		r.tail = make([]uint32, 0, chunkWords)
	}
	r.tail = append(r.tail, w)
}

// Fetch records an instruction fetch.
func (r *Recording) Fetch(addr uint32) {
	r.Fetches[mem.Classify(addr)]++
	r.push(KindFetch, addr)
}

// Read records a data read.
func (r *Recording) Read(addr uint32) {
	r.Reads[mem.Classify(addr)]++
	r.push(KindRead, addr)
}

// Write records a data write.
func (r *Recording) Write(addr uint32) {
	r.Writes[mem.Classify(addr)]++
	r.push(KindWrite, addr)
}

// Len returns the number of recorded references.
func (r *Recording) Len() int {
	n := len(r.tail)
	for _, c := range r.full {
		n += len(c)
	}
	return n
}

// Bytes returns the recording's approximate memory footprint.
func (r *Recording) Bytes() int {
	n := cap(r.tail)
	for _, c := range r.full {
		n += cap(c)
	}
	return 4 * n
}

// chunks returns the recording's chunk list, tail included, without
// mutating the receiver.
func (r *Recording) chunks() [][]uint32 {
	if len(r.tail) == 0 {
		return r.full
	}
	return append(r.full[:len(r.full):len(r.full)], r.tail)
}

// Do streams every recorded reference, in order, to fn.
func (r *Recording) Do(fn func(k Kind, addr uint32)) {
	for _, c := range r.chunks() {
		for _, w := range c {
			fn(Decode(w))
		}
	}
}

// replayBlockWords sizes the replay kernel's partition buffers: 4K
// references (16 KB of packed words, at most 32 KB of partitioned
// output) stay resident in L1 while a whole geometry group consumes
// them.
const replayBlockWords = 1 << 12

// Replay streams the recording through one cache pair: fetches probe the
// instruction cache, reads and writes the data cache — exactly the
// accesses Collector issues inline. Replaying into a fresh pair yields
// statistics identical to having attached that pair during simulation.
func (r *Recording) Replay(p Pair) {
	r.ReplayAll([]Pair{p})
}

// ReplayAll streams the recording through any number of cache pairs in
// one pass: each block of packed words is decoded once and partitioned
// into an instruction-fetch stream and a data stream (write flag in bit
// 0), same-block repeats collapsed (see partition), then every resident
// pair's I and D caches consume the partitions while they are hot in
// L1. Per-pair statistics are identical to len(p) independent Replay
// passes, and to per-reference Access — the stream just isn't re-read
// and re-decoded per geometry.
func (r *Recording) ReplayAll(pairs []Pair) {
	r.replayAll(nil, pairs)
}

// ReplayAllContext is ReplayAll with cooperative cancellation, checked
// between chunks (every 64K references per resident pair). On
// cancellation the pairs' statistics are partial and must be discarded.
func (r *Recording) ReplayAllContext(ctx context.Context, pairs []Pair) error {
	done := ctx.Done()
	if done == nil {
		r.replayAll(nil, pairs)
		return nil
	}
	if err := r.replayAll(done, pairs); err != nil {
		return ctx.Err()
	}
	return nil
}

var errCancelled = errors.New("trace: replay cancelled")

func (r *Recording) replayAll(done <-chan struct{}, pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	rp := newReplayer(pairs)
	for _, c := range r.chunks() {
		if done != nil {
			select {
			case <-done:
				return errCancelled
			default:
			}
		}
		rp.chunk(c)
	}
	return nil
}

// replayer is the shared kernel of Recording.ReplayAll and
// Reader.ReplayAll: the pairs being replayed, the block size that
// defines a same-block repeat for all of them, and reusable partition
// buffers.
type replayer struct {
	pairs       []Pair
	shift       uint32 // log2 of the smallest block size among pairs
	fetch, data []uint32
}

func newReplayer(pairs []Pair) *replayer {
	minBlock := math.MaxInt
	for _, p := range pairs {
		minBlock = min(minBlock, p.I.Config().BlockBytes, p.D.Config().BlockBytes)
	}
	return &replayer{
		pairs: pairs,
		shift: uint32(bits.TrailingZeros(uint(minBlock))),
		fetch: make([]uint32, 0, replayBlockWords),
		data:  make([]uint32, 0, replayBlockWords),
	}
}

// chunk partitions one packed chunk block-by-block and drives every
// pair's I and D caches while each block is hot in L1. The references
// partition collapsed are credited to each cache as MRU hits.
func (rp *replayer) chunk(c []uint32) {
	for off := 0; off < len(c); off += replayBlockWords {
		end := min(off+replayBlockWords, len(c))
		fRep, dRep := rp.partition(c[off:end])
		for _, p := range rp.pairs {
			// The I-cache only ever sees this read-only fetch
			// stream, so the no-dirty-state kernel applies.
			p.I.AccessBatchFetch(rp.fetch)
			p.I.AddMRUHits(fRep)
			p.D.AccessBatch(rp.data)
			p.D.AddMRUHits(dRep)
		}
	}
}

// partition decodes one block of packed trace words into the
// instruction-fetch address stream and the data stream. Data references
// carry the write flag in bit 0 (addresses are word-aligned, so the bit
// is free); KindWrite is 2 and KindRead 1, so kind>>1 is that flag.
//
// A reference to the same block as the previous reference of its
// stream is dropped and counted in the returned repeat totals. This is
// exact for every pair because the caches are LRU: the previous
// reference left that block resident and most recently used in its
// set, so the repeat hits and leaves the recency order unchanged.
// Blocks are taken at the smallest block size among the pairs, and a
// block at that size lies within one block of every larger size. The
// only state a repeat can change is the dirty byte, so a dropped data
// reference ORs its write flag into the kept one: the line is dirtied
// (or allocated dirty) one reference early, which no intervening
// reference of the data stream can observe, giving the same misses,
// dirty state and writebacks. Run tracking restarts with each block,
// because the caches consume a block before the next is partitioned
// and a consumed reference can no longer take a folded flag.
func (rp *replayer) partition(block []uint32) (fRep, dRep uint64) {
	fetch, data := rp.fetch[:0], rp.data[:0]
	shift := rp.shift
	lastF, lastD := ^uint32(0), ^uint32(0) // no block number reaches 2^32-1
	for _, w := range block {
		k := w >> kindShift
		addr := w << 2 & (addrMask << 2)
		blk := addr >> shift
		switch {
		case k == uint32(KindFetch):
			if blk == lastF {
				fRep++
				continue
			}
			lastF = blk
			fetch = append(fetch, addr)
		case blk == lastD:
			dRep++
			data[len(data)-1] |= k >> 1
		default:
			lastD = blk
			data = append(data, addr|k>>1)
		}
	}
	rp.fetch, rp.data = fetch, data
	return fRep, dRep
}

// ReplayPair builds a fresh pair of the given geometry and replays the
// recording through it.
func (r *Recording) ReplayPair(cfg cache.Config) (Pair, error) {
	p, err := NewPair(cfg)
	if err != nil {
		return Pair{}, err
	}
	r.Replay(p)
	return p, nil
}

// MissCounts attributes cache misses by cause: fetch misses and data
// read/write misses, each split by the §3.1 reference class of the
// missing address.
type MissCounts struct {
	Fetch [mem.NumClasses]uint64
	Read  [mem.NumClasses]uint64
	Write [mem.NumClasses]uint64
}

// Total returns all misses across kinds and classes.
func (mc *MissCounts) Total() uint64 {
	var t uint64
	for c := 0; c < int(mem.NumClasses); c++ {
		t += mc.Fetch[c] + mc.Read[c] + mc.Write[c]
	}
	return t
}

// ReplayObserved replays the recording through p like Replay while
// classifying every miss by reference kind and class. The cache
// statistics it leaves in p are identical to Replay's; the returned
// attribution feeds the observability registry's per-cause miss
// counters.
func (r *Recording) ReplayObserved(p Pair) MissCounts {
	var mc MissCounts
	ic, dc := p.I, p.D
	for _, c := range r.chunks() {
		replayObservedChunk(c, ic, dc, &mc)
	}
	return mc
}

// replayObservedChunk is the direct chunk loop shared by ReplayObserved
// and ReplayAllObserved: no per-reference closure, misses classified in
// place.
func replayObservedChunk(c []uint32, ic, dc *cache.Cache, mc *MissCounts) {
	for _, w := range c {
		addr := w << 2 & (addrMask << 2)
		switch Kind(w >> kindShift) {
		case KindFetch:
			if !ic.Access(addr, false) {
				mc.Fetch[mem.Classify(addr)]++
			}
		case KindRead:
			if !dc.Access(addr, false) {
				mc.Read[mem.Classify(addr)]++
			}
		default:
			if !dc.Access(addr, true) {
				mc.Write[mem.Classify(addr)]++
			}
		}
	}
}

// ReplayAllObserved is ReplayAll with per-pair miss attribution: every
// pair's statistics and MissCounts are identical to len(pairs)
// independent ReplayObserved passes, but the packed stream is read once
// and each chunk stays cache-hot while every resident pair consumes it.
func (r *Recording) ReplayAllObserved(pairs []Pair) []MissCounts {
	mcs := make([]MissCounts, len(pairs))
	for _, c := range r.chunks() {
		for i, p := range pairs {
			replayObservedChunk(c, p.I, p.D, &mcs[i])
		}
	}
	return mcs
}

// AddTo folds the attribution into an observability registry under
// cache.miss.{fetch,read,write}.<class>, prefixed by label when label is
// non-empty (e.g. "8K/4-way/64B: cache.miss.fetch.sys-code").
func (mc *MissCounts) AddTo(r *obs.Registry, label string) {
	pre := ""
	if label != "" {
		pre = label + ": "
	}
	for c := mem.Class(0); c < mem.NumClasses; c++ {
		if n := mc.Fetch[c]; n != 0 {
			r.Counter(pre + "cache.miss.fetch." + c.String()).Add(n)
		}
		if n := mc.Read[c]; n != 0 {
			r.Counter(pre + "cache.miss.read." + c.String()).Add(n)
		}
		if n := mc.Write[c]; n != 0 {
			r.Counter(pre + "cache.miss.write." + c.String()).Add(n)
		}
	}
}

// ReplaySampled replays the recording through p like Replay while
// sampling miss density: after every `every` instruction fetches, emit
// receives the cumulative fetch count and the I- and D-cache miss
// deltas accumulated since the previous sample; a final partial sample
// flushes any remainder. The cache statistics left in p are identical
// to Replay's.
func (r *Recording) ReplaySampled(p Pair, every int, emit func(instrs, iMisses, dMisses uint64)) {
	if every <= 0 {
		every = 1000
	}
	ic, dc := p.I, p.D
	var fetches, iMiss, dMiss uint64
	next := uint64(every)
	for _, c := range r.chunks() {
		for _, w := range c {
			addr := w << 2 & (addrMask << 2)
			switch Kind(w >> kindShift) {
			case KindFetch:
				if !ic.Access(addr, false) {
					iMiss++
				}
				fetches++
				if fetches >= next {
					emit(fetches, iMiss, dMiss)
					iMiss, dMiss = 0, 0
					next += uint64(every)
				}
			case KindRead:
				if !dc.Access(addr, false) {
					dMiss++
				}
			default:
				if !dc.Access(addr, true) {
					dMiss++
				}
			}
		}
	}
	if iMiss != 0 || dMiss != 0 {
		emit(fetches, iMiss, dMiss)
	}
}

// MissDensityTrack replays the recording through a fresh cache pair of
// the given geometry and exports I- and D-cache miss counter tracks
// onto b's pid timeline, one sample per `every` instructions (1000 when
// every <= 0). Timestamps are cumulative instruction counts — the same
// clock as the machine's scheduler spans — so conflict-miss bursts line
// up with the quantum and inlet spans they occur inside. Returns the
// replayed pair for its aggregate statistics.
func (r *Recording) MissDensityTrack(b *obs.EventBuffer, pid int32, cfg cache.Config, every int) (Pair, error) {
	p, err := NewPair(cfg)
	if err != nil {
		return Pair{}, err
	}
	r.ReplaySampled(p, every, func(instrs, iMiss, dMiss uint64) {
		b.Counter("I-miss density", "miss-density", pid, instrs, "misses", iMiss)
		b.Counter("D-miss density", "miss-density", pid, instrs, "misses", dMiss)
	})
	return p, nil
}

// MissDensityTrackLabeled is MissDensityTrack with a label prefixed to
// the counter-track names, so a second reference stream on the same pid
// (e.g. a NIC engine's share under an offload backend) gets its own
// pair of tracks ("nic.I-miss density") instead of colliding with the
// compute-side tracks.
func (r *Recording) MissDensityTrackLabeled(b *obs.EventBuffer, pid int32, cfg cache.Config, every int, label string) (Pair, error) {
	p, err := NewPair(cfg)
	if err != nil {
		return Pair{}, err
	}
	r.ReplaySampled(p, every, func(instrs, iMiss, dMiss uint64) {
		b.Counter(label+"I-miss density", "miss-density", pid, instrs, "misses", iMiss)
		b.Counter(label+"D-miss density", "miss-density", pid, instrs, "misses", dMiss)
	})
	return p, nil
}
