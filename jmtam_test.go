package jmtam

import (
	"runtime"
	"strings"
	"testing"
)

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	want := []string{"mmt", "qs", "dtw", "paraffins", "wavefront", "ss"}
	if len(names) != len(want) {
		t.Fatalf("got %d names, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestRunVerifies(t *testing.T) {
	res, err := Run(MD, Benchmark("ss", 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Threads == 0 {
		t.Errorf("empty result: %+v", res)
	}
}

func TestRunWithCaches(t *testing.T) {
	geoms := []CacheConfig{
		{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 4},
	}
	res, err := Run(AM, Benchmark("qs", 40), Options{}, geoms...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Caches) != 2 {
		t.Fatalf("got %d cache results, want 2", len(res.Caches))
	}
	small := res.Cycles(0, 24)
	big := res.Cycles(1, 24)
	if small < big {
		t.Errorf("1K cache cycles %d < 8K cache cycles %d", small, big)
	}
	if res.Cycles(1, 48) < res.Cycles(1, 12) {
		t.Error("higher miss penalty produced fewer cycles")
	}
}

func TestCompareAt(t *testing.T) {
	geom := CacheConfig{SizeBytes: 8192, BlockBytes: 64, Assoc: 4}
	ratio, err := CompareAt(func() *Program { return Benchmark("ss", 60) }, geom, 24, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio >= 1.2 {
		t.Errorf("SS MD/AM ratio = %.2f, expected MD to win (paper: 0.86)", ratio)
	}
}

func TestBenchmarkPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Benchmark(\"nope\") did not panic")
		}
	}()
	Benchmark("nope", 1)
}

func TestQuickSweepReports(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	sw := NewQuickSweep()
	ds, err := sw.Execute()
	if err != nil {
		t.Fatal(err)
	}
	table := ReportTable2(ds)
	for _, name := range BenchmarkNames() {
		if !strings.Contains(table, name) {
			t.Errorf("Table 2 missing %s:\n%s", name, table)
		}
	}
	for _, s := range []string{ReportFigure3(ds), ReportFigure4(ds), ReportFigure5(ds), ReportFigure6(ds)} {
		if !strings.Contains(s, "legend:") {
			t.Error("figure rendering missing legend")
		}
	}
	if r := ds.GeoMeanRatio(8, 4, 12); r <= 0 || r >= 1 {
		t.Errorf("geomean ratio at 8K/4-way/12 = %.2f; MD should win (paper Figure 3)", r)
	}
	// Direct-mapped caches favour MD (paper §3.3.2).
	if dm, sa := ds.GeoMeanRatio(8, 1, 24), ds.GeoMeanRatio(8, 4, 24); dm >= sa {
		t.Errorf("direct-mapped ratio %.3f not below 4-way ratio %.3f", dm, sa)
	}
	// AM gains as the miss penalty grows (paper §3.3).
	if r12, r48 := ds.GeoMeanRatio(8, 4, 12), ds.GeoMeanRatio(8, 4, 48); r48 <= r12 {
		t.Errorf("ratio at miss 48 (%.3f) not above ratio at miss 12 (%.3f)", r48, r12)
	}
}

func TestWordHelpers(t *testing.T) {
	if Int(5).AsInt() != 5 || Float(1.5).AsFloat() != 1.5 || Ptr(64).Addr() != 64 {
		t.Error("word helpers broken")
	}
}

func TestBuildFacade(t *testing.T) {
	sim, err := Build(MD, Benchmark("ss", 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Collector.AddPair(CacheConfig{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPaperSweepShape(t *testing.T) {
	sw := NewPaperSweep()
	if len(sw.Workloads) != 6 || len(sw.SizesKB) != 8 || len(sw.Assocs) != 3 {
		t.Errorf("paper sweep shape wrong: %+v", sw)
	}
	if sw.BlockBytes != 64 {
		t.Errorf("block = %d", sw.BlockBytes)
	}
	for _, w := range sw.Workloads {
		if w.Name == "mmt" && w.Arg != 50 {
			t.Errorf("paper mmt arg = %d", w.Arg)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(MD, Benchmark("ss", 10), Options{},
		CacheConfig{SizeBytes: 3, BlockBytes: 64, Assoc: 1}); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := Run(MD, Benchmark("ss", 10), Options{MaxInstructions: 5}); err == nil {
		t.Error("instruction limit not surfaced")
	}
}

// TestRunRecyclesMemory checks that a façade run returns its pooled
// simulated memory: after a warm-up run has filled the pool, one more
// run must allocate only its recording and bookkeeping, not a fresh
// zeroed machine memory (about 25 MB).
func TestRunRecyclesMemory(t *testing.T) {
	run := func() {
		if _, err := Run(AM, Benchmark("qs", 20), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const limit = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("second Run allocated %.1f MB, want under %d MB", float64(got)/(1<<20), limit>>20)
	}
}
