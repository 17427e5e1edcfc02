package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzCompactRoundTrip interprets the fuzz input as a (kind, addr)
// reference stream, compacts it, and asserts the decoded stream is
// identical — refs, counts, and lengths.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, 0x00})
	// A run of sequential fetches followed by a data burst.
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = append(seed, 0)
		seed = binary.LittleEndian.AppendUint32(seed, uint32(0x1000+i*4))
	}
	for i := 0; i < 4; i++ {
		seed = append(seed, byte(1+i%2))
		seed = binary.LittleEndian.AppendUint32(seed, uint32(0x40_0000+i*8))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := &Recording{}
		for len(data) >= 5 {
			k := Kind(data[0] % 3)
			addr := binary.LittleEndian.Uint32(data[1:5]) &^ 3
			switch k {
			case KindFetch:
				rec.Fetch(addr)
			case KindRead:
				rec.Read(addr)
			default:
				rec.Write(addr)
			}
			data = data[5:]
		}
		compacted := rec.Compact()
		got, err := Decompact(compacted)
		if err != nil {
			t.Fatalf("Decompact: %v", err)
		}
		if got.Len() != rec.Len() || got.Counts != rec.Counts {
			t.Fatalf("Len/Counts mismatch: %d/%v vs %d/%v", got.Len(), got.Counts, rec.Len(), rec.Counts)
		}
		type ref struct {
			k    Kind
			addr uint32
		}
		var want, have []ref
		rec.Do(func(k Kind, a uint32) { want = append(want, ref{k, a}) })
		got.Do(func(k Kind, a uint32) { have = append(have, ref{k, a}) })
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("ref %d: %+v vs %+v", i, have[i], want[i])
			}
		}
	})
}

// FuzzDecompact feeds arbitrary bytes to the decoder: it must never
// panic or over-allocate, and anything it accepts must re-compact to a
// decodable stream of the same length.
func FuzzDecompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("JTR2\x01\x00\x00"))
	rec := &Recording{}
	for i := uint32(0); i < 1000; i++ {
		rec.Fetch(0x1000 + i*4)
		if i%7 == 0 {
			rec.Read(0x80_0000 + i*16)
		}
	}
	f.Add(rec.CompactAnnotated([]byte(`{"p":"x"}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decompact(data)
		if err != nil {
			return
		}
		again, err := Decompact(got.Compact())
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if again.Len() != got.Len() || again.Counts != got.Counts {
			t.Fatalf("unstable round-trip: %d vs %d", again.Len(), got.Len())
		}
	})
}

// FuzzReaderChunks checks that the streaming Reader yields exactly the
// same word sequence as the materialized decode, regardless of where the
// input's chunk boundaries fall.
func FuzzReaderChunks(f *testing.F) {
	f.Add(uint64(1), 10)
	f.Add(uint64(2), chunkWords)
	f.Add(uint64(3), chunkWords+1)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		if n < 0 || n > 3*chunkWords {
			return
		}
		rec := record(randomRefs(seed, n))
		data := rec.Compact()
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var streamed []uint32
		if err := rd.Do(func(k Kind, a uint32) { streamed = append(streamed, Encode(k, a)) }); err != nil {
			t.Fatal(err)
		}
		var direct []uint32
		rec.Do(func(k Kind, a uint32) { direct = append(direct, Encode(k, a)) })
		if len(streamed) != len(direct) {
			t.Fatalf("streamed %d words, want %d", len(streamed), len(direct))
		}
		for i := range direct {
			if streamed[i] != direct[i] {
				t.Fatalf("word %d: %#x vs %#x", i, streamed[i], direct[i])
			}
		}
	})
}

// refsFromBytes decodes fuzz input two bytes per reference: the kind in
// the top two bits (3 reads as a write) and a word address in the low
// fourteen. The 64 KB address space keeps reuse, same-block runs,
// conflicts and dirty evictions common in arbitrary input.
func refsFromBytes(data []byte) []ref {
	refs := make([]ref, 0, len(data)/2)
	for ; len(data) >= 2; data = data[2:] {
		w := binary.BigEndian.Uint16(data)
		refs = append(refs, ref{min(Kind(w>>14), KindWrite), uint32(w&0x3FFF) << 2})
	}
	return refs
}

// refBytes is refsFromBytes' inverse for references below 64 KB.
func refBytes(refs []ref) []byte {
	out := make([]byte, 0, 2*len(refs))
	for _, x := range refs {
		out = binary.BigEndian.AppendUint16(out, uint16(x.k)<<14|uint16(x.addr>>2&0x3FFF))
	}
	return out
}

// FuzzReplayAllMatchesScalar replays arbitrary reference streams
// through a group mixing block sizes and associativities, with
// Recording.ReplayAll and with a Reader over the compacted recording,
// and requires both to match per-reference Access exactly. Each stream
// is replayed twice: as is, and behind a fetch run that puts its
// midpoint on a replay-block edge. (TestReplayMatchesInlineFanOut
// covers the chunk edges, which are replay-block edges too; padding to
// one here would cut the fuzzing rate tenfold.) The first seed holds
// write→read, read→write and write→write runs within one 8-byte block
// (the group's smallest), a read→write run across the midpoint, and
// conflicting reads that evict each run's block from the direct-mapped
// members, so a lost write flag shows as a missing writeback.
func FuzzReplayAllMatchesScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add(refBytes([]ref{
		{KindWrite, 0x140}, {KindRead, 0x144}, {KindRead, 0x180}, {KindWrite, 0x184},
		{KindFetch, 0x0}, {KindRead, 0x100}, // midpoint
		{KindWrite, 0x104}, {KindWrite, 0x1C0}, {KindWrite, 0x1C4},
		{KindRead, 0x1100}, {KindRead, 0x1180}, {KindRead, 0x11C0}, {KindFetch, 0x4},
	}))
	f.Add(refBytes(randomRefs(5, 1000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs := refsFromBytes(data)
		if len(refs) > 2*replayBlockWords {
			return
		}
		checkReplayExact(t, refs, mixedGrid)
		pad := make([]ref, replayBlockWords-len(refs)/2) // fetches of address 0
		checkReplayExact(t, append(pad, refs...), mixedGrid)
	})
}
