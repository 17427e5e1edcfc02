package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"jmtam/api"
	"jmtam/internal/core"
	"jmtam/internal/experiments"
)

func TestSameSeedSameRequestStream(t *testing.T) {
	differs := false
	for k := int64(0); k < 500; k++ {
		a, ai := runsRequest(7, k)
		b, bi := runsRequest(7, k)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ai, bi) {
			t.Fatalf("op %d: seed 7 gave two different requests", k)
		}
		if e1, a1 := ssArg(7, k); true {
			if e2, a2 := ssArg(7, k); e1 != e2 || a1 != a2 {
				t.Fatalf("op %d: seed 7 gave two different ss units", k)
			}
		}
		c, _ := runsRequest(8, k)
		differs = differs || !reflect.DeepEqual(a, c)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

func TestRunsStreamSendsEveryPairOncePerBlock(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		for block := int64(0); block < 5; block++ {
			seen := map[[2]string]bool{}
			for k := block * int64(runsBlock); k < (block+1)*int64(runsBlock); k++ {
				req, _ := runsRequest(seed, k)
				seen[[2]string{req.Program, req.Impl}] = true
			}
			if len(seen) != runsBlock {
				t.Fatalf("seed %d block %d: %d distinct (program, backend) pairs, want %d", seed, block, len(seen), runsBlock)
			}
		}
	}
}

// sleeper is a bench whose ops take a millisecond and always pass.
type sleeper struct{}

func (sleeper) clients() int { return 2 }
func (sleeper) op(context.Context, int64, *tracer) (time.Duration, check, error) {
	time.Sleep(time.Millisecond)
	return time.Millisecond, func() (uint64, error) { return 1, nil }, nil
}
func (sleeper) traceStart(context.Context) error        { return nil }
func (sleeper) traceEnd(context.Context, *tracer) error { return nil }
func (sleeper) report(io.Writer)                        {}
func (sleeper) close()                                  {}

func TestDriveEndsOnBlockBoundary(t *testing.T) {
	var next int64
	for phase := 0; phase < 2; phase++ {
		first := next
		st := drive(context.Background(), sleeper{}, nil, &next, 20*time.Millisecond, 0, 7)
		ks := map[int64]bool{}
		for _, o := range st.ops {
			if o.k < first || o.k >= next {
				t.Fatalf("phase %d: op index %d outside [%d, %d)", phase, o.k, first, next)
			}
			ks[o.k] = true
		}
		if len(st.ops) == 0 || len(ks) != len(st.ops) || int64(len(st.ops)) != next-first || next%7 != 0 {
			t.Fatalf("phase %d: ops %d to %d (%d sent): not whole blocks of 7", phase, first, next, len(st.ops))
		}
	}
}

func TestSSArgumentsNeverRepeat(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		seen := map[[2]int]int64{}
		for k := int64(0); k < ssEpochs*ssWindow; k++ {
			e, a := ssArg(seed, k)
			if e != int(k/ssWindow) {
				t.Fatalf("seed %d: op %d runs in epoch %d", seed, k, e)
			}
			if prev, ok := seen[[2]int{e, a}]; ok {
				t.Fatalf("seed %d: ops %d and %d both send ss %d to epoch %d's daemon", seed, prev, k, a, e)
			}
			seen[[2]int{e, a}] = k
		}
	}
}

// Every ssStrata consecutive ops, in any epoch, take one argument from
// each stratum, so ops past the first window have the same argument
// distribution as the first window's.
func TestSSArgumentDistributionIsStationary(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		for k0 := int64(0); k0 < ssEpochs*ssWindow; k0 += ssStrata {
			var strata [ssStrata]bool
			for k := k0; k < k0+ssStrata; k++ {
				_, a := ssArg(seed, k)
				if a < ssLo || a >= ssLo+ssWindow {
					t.Fatalf("seed %d: op %d uses ss %d, outside the window", seed, k, a)
				}
				strata[(a-ssLo)/ssWidth] = true
			}
			for s, ok := range strata {
				if !ok {
					t.Fatalf("seed %d: ops %d..%d take no argument from stratum %d", seed, k0, k0+ssStrata-1, s)
				}
			}
		}
	}
}

func TestTable2CheckerRejectsPlantedMiss(t *testing.T) {
	var golden []unitResult
	if err := json.Unmarshal(table2Golden, &golden); err != nil {
		t.Fatal(err)
	}
	var got []unitResult
	if err := json.Unmarshal(table2Golden, &got); err != nil {
		t.Fatal(err)
	}
	if err := checkUnits(golden, got); err != nil {
		t.Fatalf("golden against itself: %v", err)
	}
	got[3].Caches[5].DMisses++
	if checkUnits(golden, got) == nil {
		t.Fatal("a planted data-cache miss passed the table2-paper check")
	}
}

// quickRef is the 24-geometry reference of one quick-scale unit.
func quickRef(t *testing.T, program string, impl core.Impl) *unitResult {
	t.Helper()
	for _, w := range experiments.QuickWorkloads() {
		if w.Name == program {
			u, _, err := runUnit(context.Background(), nil, 0, 0, w, impl, paperGrid())
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
	}
	t.Fatalf("no quick workload %s", program)
	return nil
}

func TestRunCheckerRejectsPlantedMiss(t *testing.T) {
	idx, pen := []int{3, 11}, []int{24}
	am := expectedRun(quickRef(t, "qs", core.ImplAM), idx, pen)
	for _, impl := range []core.Impl{core.ImplAM, core.ImplOffload} {
		want := expectedRun(quickRef(t, "qs", impl), idx, pen)
		got := want
		if err := checkRun(want, am, got); err != nil {
			t.Fatalf("%v: reference against itself: %v", impl, err)
		}
		got.Caches = append([]api.CacheResult(nil), want.Caches...)
		got.Caches[1].IMisses++
		err := checkRun(want, am, got)
		if err == nil {
			t.Fatalf("%v: a planted instruction-cache miss passed the /v1/runs check", impl)
		}
		if errors.Is(err, errKnownDivergence) {
			t.Fatalf("%v: a planted miss was classified as the known divergence", impl)
		}
		got = want
		got.Instructions++
		if err := checkRun(want, am, got); err == nil || errors.Is(err, errKnownDivergence) {
			t.Fatalf("%v: a wrong instruction count passed or was excused: %v", impl, err)
		}
	}

	// An offload document carrying AM's statistics is the documented
	// divergence: it fails, as known. Offload's reference must differ
	// from AM's here, or the case tests nothing.
	want := expectedRun(quickRef(t, "qs", core.ImplOffload), idx, pen)
	if reflect.DeepEqual(want.Caches, am.Caches) {
		t.Fatal("offload and AM references agree; pick geometries where they differ")
	}
	got := want
	got.Caches = am.Caches
	if err := checkRun(want, am, got); !errors.Is(err, errKnownDivergence) {
		t.Fatalf("offload with AM's misses: got %v, want the known divergence", err)
	}
	got.Caches = append([]api.CacheResult(nil), am.Caches...)
	got.Caches[0].DMisses++
	if err := checkRun(want, am, got); err == nil || errors.Is(err, errKnownDivergence) {
		t.Fatalf("offload with AM's misses plus a planted one passed or was excused: %v", err)
	}
}

// sweepDoc is the document a daemon should return for req, built from
// the references.
func sweepDoc(refs map[string]*unitResult, req api.SweepRequest) api.SweepResult {
	var doc api.SweepResult
	for _, w := range req.Workloads {
		for _, name := range req.Impls {
			impl, _ := core.ParseImpl(name)
			r := expectedRun(refs[unitKey(w.Program, w.Arg, impl.Name())], allGeoms(), req.Penalties)
			doc.Runs = append(doc.Runs, api.SweepRunSummary{Program: r.Program, Arg: r.Arg, Impl: impl.String(),
				Instructions: r.Instructions, TPQ: r.TPQ, IPT: r.IPT, IPQ: r.IPQ, Caches: r.Caches})
		}
	}
	return doc
}

func TestSweepCheckersRejectPlantedMiss(t *testing.T) {
	refs := map[string]*unitResult{}
	for _, impl := range table2Impls {
		u := quickRef(t, "dtw", impl)
		refs[unitKey(u.Program, u.Arg, u.Impl)] = u
	}
	req := api.SweepRequest{Workloads: []api.WorkloadSpec{{Program: "dtw", Arg: 8}}, Impls: []string{"md", "am"}, Penalties: []int{100}}
	s := &sweepsStored{refs: refs}
	doc := sweepDoc(refs, req)
	if _, err := s.check(context.Background(), req, doc); err != nil {
		t.Fatalf("reference document: %v", err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSharded(doc, req.Penalties, raw); err != nil {
		t.Fatalf("reference document: %v", err)
	}

	bad := sweepDoc(refs, req)
	bad.Runs[1].Caches[7].DMisses++
	if _, err := s.check(context.Background(), req, bad); err == nil {
		t.Fatal("a planted miss passed the sweeps-stored check")
	}
	raw, err = json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if checkSharded(doc, req.Penalties, raw) == nil {
		t.Fatal("a planted miss passed the sharded-sweep check")
	}
}

func TestMetricNamesMatchManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		kind     string
		code     []metricDef
		manifest []metric
	}{{"end_to_end", endToEnd, manifest.EndToEnd}, {"per_layer", perLayer, manifest.PerLayer}} {
		if len(c.code) != len(c.manifest) {
			t.Fatalf("%s: the benchmark reports %d metrics, BENCHMARK.json lists %d", c.kind, len(c.code), len(c.manifest))
		}
		for i, m := range c.code {
			if !valid.MatchString(m.name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", c.kind, m.name)
			}
			if c.manifest[i] != (metric{m.name, m.unit}) {
				t.Errorf("%s %d: the benchmark reports %s (%s), BENCHMARK.json lists %s (%s)",
					c.kind, i, m.name, m.unit, c.manifest[i].Name, c.manifest[i].Unit)
			}
		}
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json lists %q, the benchmark has %q", i, manifest.Workloads[i].Name, w.name)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	if got, want := selfTimes(spans), []int64{100 - 50 - 10, 30, 30, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tail(xs); v != 189 || p != 95 {
		t.Fatalf("tail of 200 samples = %v at p%v, want 189 at p95", v, p)
	}
	if v, p := tail(xs[:7]); v != 3 || p != 50 {
		t.Fatalf("tail of 7 samples = %v at p%v, want the median at p50", v, p)
	}
}
