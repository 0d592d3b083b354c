package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"dsmnc"
	"dsmnc/telemetry"
	"dsmnc/trace"
	"dsmnc/workload"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want       float64
		value, use float64
	}{
		{1000, 99, 990, 99},   // exactly ten samples beyond p99
		{999, 99, 950, 95},    // nine beyond p99: fall back to p95
		{200, 99, 190, 95},    // ten beyond p95
		{40, 99, 30, 75},      // ten beyond p75
		{40, 50, 20.5, 50},    // p50 is the median
		{19, 99, 10, 50},      // nothing qualifies: the median
		{20, 50, 10.5, 50},    // ten beyond p50
		{4, 50, 2.5, 50},      // even count: the median averages
		{1000, 50, 500.5, 50}, // a lower request is never raised
		{2000, 99, 1980, 99},  // twenty beyond
	} {
		used := level(tc.n, tc.want)
		if v := at(seq(tc.n), used); v != tc.value || used != tc.use {
			t.Errorf("n=%d p%g: got %v at p%g, want %v at p%g", tc.n, tc.want, v, used, tc.value, tc.use)
		}
	}
}

func TestPercentileIgnoresSampleOrder(t *testing.T) {
	s := seq(300)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	used := level(len(s), 99)
	if v := at(s, used); v != 285 || used != 95 {
		t.Errorf("got %v at p%g, want 285 at p95", v, used)
	}
	if s[0] != 300 {
		t.Error("at reordered its input")
	}
}

// The parser reads what the repository's own registry writes.
func TestPromParsesRegistryHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, err := telemetry.NewHistogram(0.001, 0.01, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.0005, 0.002, 0.004, 0.05, 2} {
		h.Observe(v)
	}
	if err := reg.RegisterHistogram("dsmnc_serve_run_seconds", "Run time.", nil, h); err != nil {
		t.Fatal(err)
	}
	if err := reg.Counter("dsmnc_serve_deduped_total", "Deduped.", func() float64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := histogramMean(samples, "dsmnc_serve_run_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2.0565/5) > 1e-9 {
		t.Errorf("mean %v, want 2.0565/5", mean)
	}
	if v, ok := promValue(samples, "dsmnc_serve_deduped_total"); !ok || v != 7 {
		t.Errorf("counter %v %v, want 7", v, ok)
	}
	if _, err := histogramMean(samples, "absent_seconds"); err == nil {
		t.Error("a missing histogram parsed")
	}
}

func TestPromLabelsAndErrors(t *testing.T) {
	in := `# HELP x_seconds help text, with commas
x_seconds_bucket{job="a,b",le="0.5"} 2
x_seconds_bucket{job="a,b",le="+Inf"} 3
plain_total 4.5e+01
`
	samples, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || samples[0].labels["job"] != "a,b" || samples[1].labels["le"] != "+Inf" {
		t.Fatalf("parsed %+v", samples)
	}
	if v, _ := promValue(samples, "plain_total"); v != 45 {
		t.Errorf("plain_total %v", v)
	}
	for _, bad := range []string{"novalue\n", `x{le="1" 2` + "\n", "x notanumber\n", `x{le=unquoted} 1` + "\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestSymbolFolding(t *testing.T) {
	for _, tc := range []struct{ symbol, pkg, module string }{
		{"dsmnc/internal/cache.(*SetAssoc).Lookup", "dsmnc/internal/cache", "cache"},
		{"dsmnc/internal/bus.Bus.Probe", "dsmnc/internal/bus", "bus"},
		{"dsmnc/workload.FFT.func1", "dsmnc/workload", "workload"},
		{"dsmnc/workload.(*Emitter).flush", "dsmnc/workload", "workload"},
		{"dsmnc/internal/flatmap.(*Map[go.shape.int32]).Put", "dsmnc/internal/flatmap", "flatmap"},
		{"dsmnc/internal/flatmap.(*Map[go.shape.struct { dsmnc/internal/directory.sticky uint64; dsmnc/internal/directory.dirty int8 }]).Get",
			"dsmnc/internal/flatmap", "flatmap"},
		{"dsmnc/internal/flatmap.New[...]", "dsmnc/internal/flatmap", "flatmap"},
		{"dsmnc.runCell.func1", "dsmnc", "dsmnc"},
		{"dsmnc.(*Progress).Heartbeat.func1.1", "dsmnc", "dsmnc"},
		{"dsmnc/internal/sim.(*System).ApplyBatch", "dsmnc/internal/sim", "sim"},
		{"dsmnc/stats.(*OpCount).Inc", "dsmnc/stats", "stats"},
		{"dsmnc/memsys.(*FirstTouch).Home", "dsmnc/memsys", "memsys"},
		{"dsmnc/internal/pagecache.(*PageCache).Lookup", "dsmnc/internal/pagecache", "pagecache"},
		{"dsmnc/internal/directory.(*Directory).Access", "dsmnc/internal/directory", "directory"},
		{"dsmnc/internal/core.(*Victim).Insert", "dsmnc/internal/core", "core"},
		{"dsmnc/internal/cluster.(*Cluster).Access", "dsmnc/internal/cluster", "cluster"},
		{"runtime.memmove", "runtime", "runtime"},
		{"internal/runtime/maps.h2", "internal/runtime/maps", "runtime"},
		{"runtime/internal/atomic.Load", "runtime/internal/atomic", "runtime"},
		{"dsmnc/serve.(*Scheduler).Submit", "dsmnc/serve", "other"},
		{"sync/atomic.(*Int64).Add", "sync/atomic", "other"},
		{"main.tracedCell.func3", "main", "other"},
		{"", "", "other"},
	} {
		pkg := symbolPackage(tc.symbol)
		if pkg != tc.pkg || moduleOf(pkg) != tc.module {
			t.Errorf("%q: package %q module %q, want %q %q", tc.symbol, pkg, moduleOf(pkg), tc.pkg, tc.module)
		}
	}
}

// A real CPU profile of trace generation folds onto the workload module.
func TestFoldRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a few hundred milliseconds")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	opt := dsmnc.DefaultOptions()
	b := workload.ByName("Radix", workload.ScaleSmall)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		b.EmitBatch(opt.Geometry, opt.Quantum, func([]trace.Ref) {})
	}
	pprof.StopCPUProfile()
	counts, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	var sum int64
	for m, n := range counts {
		sum += n
		found := false
		for _, known := range profileModules {
			found = found || m == known
		}
		if !found {
			t.Errorf("module %q is not one of %v", m, profileModules)
		}
	}
	if sum != total {
		t.Errorf("module counts sum to %d of %d samples", sum, total)
	}
	// Under the race detector the runtime's instrumentation dominates;
	// of the repository's modules, trace generation must still lead.
	for m, n := range counts {
		if m != "workload" && m != "runtime" && m != "other" && n >= counts["workload"] {
			t.Errorf("%s has %d samples, workload %d of %d", m, n, counts["workload"], total)
		}
	}
	if counts["workload"] == 0 {
		t.Errorf("no sample folded onto workload: %v", counts)
	}
	if _, _, err := foldProfile([]byte{0x1f, 0x8b, 1, 2}); err == nil {
		t.Error("a corrupt profile folded")
	}
	if _, _, err := foldProfile([]byte{0x0a, 0x05, 1}); err == nil {
		t.Error("a truncated profile folded")
	}
}

func TestGenMixIsSeededAndBalanced(t *testing.T) {
	pool1, reqs1 := genMix(7, mixPool, mixFreshPerGroup, mixRepeats)
	pool2, reqs2 := genMix(7, mixPool, mixFreshPerGroup, mixRepeats)
	if !reflect.DeepEqual(pool1, pool2) || !reflect.DeepEqual(reqs1, reqs2) {
		t.Fatal("the same seed generated different inputs")
	}
	_, reqs3 := genMix(8, mixPool, mixFreshPerGroup, mixRepeats)
	if reflect.DeepEqual(reqs1, reqs3) {
		t.Fatal("different seeds generated the same inputs")
	}
	for _, reqs := range [][]mixRequest{reqs1, reqs3} {
		if len(reqs) != len(mixBenches)*len(mixSystems)*mixFreshPerGroup+mixRepeats {
			t.Fatalf("%d requests", len(reqs))
		}
	}
	inPool := map[serveCell]bool{}
	for _, c := range pool1 {
		if inPool[c] {
			t.Errorf("pool holds %+v twice", c)
		}
		inPool[c] = true
	}
	if len(inPool) != mixPool {
		t.Errorf("pool of %d cells, want %d", len(inPool), mixPool)
	}
	fresh := map[serveCell]bool{}
	perGroup := map[[2]string]int{}
	repeats := 0
	for _, q := range reqs1 {
		if q.cell.Scale != "test" {
			t.Errorf("%+v is not a test-scale cell", q.cell)
		}
		if !q.fresh {
			repeats++
			if !inPool[q.cell] {
				t.Errorf("repeat of %+v, which the ledger does not hold", q.cell)
			}
			continue
		}
		if fresh[q.cell] || inPool[q.cell] {
			t.Errorf("fresh cell %+v is not new to the server", q.cell)
		}
		fresh[q.cell] = true
		perGroup[[2]string{q.cell.Bench, q.cell.System}]++
	}
	if repeats != mixRepeats {
		t.Errorf("%d repeats, want %d", repeats, mixRepeats)
	}
	if len(perGroup) != len(mixBenches)*len(mixSystems) {
		t.Errorf("fresh cells cover %d (bench, system) pairs", len(perGroup))
	}
	for g, n := range perGroup {
		if n != mixFreshPerGroup {
			t.Errorf("%v has %d fresh cells, want %d", g, n, mixFreshPerGroup)
		}
	}
	// The classes interleave rather than running back to back.
	switches := 0
	for i := 1; i < len(reqs1); i++ {
		if reqs1[i].fresh != reqs1[i-1].fresh {
			switches++
		}
	}
	if switches < len(reqs1)/4 {
		t.Errorf("only %d class switches in %d requests", switches, len(reqs1))
	}
}

func TestRequestBodiesParse(t *testing.T) {
	_, reqs := genMix(1, mixPool, mixFreshPerGroup, mixRepeats)
	for _, q := range reqs[:20] {
		var back serveCell
		if err := json.Unmarshal(q.cell.body(), &back); err != nil || back != q.cell {
			t.Fatalf("%+v round-trips to %+v (%v)", q.cell, back, err)
		}
		if _, _, _, err := engineInputs(q.cell); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptGolden copies one golden cell into a fresh checkout-shaped
// directory, optionally bumping one of its counters.
func corruptGolden(t *testing.T, name string, corrupt bool) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenCell
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if corrupt {
		g.Stats.L1Hits.Read++
	}
	root := t.TempDir()
	dir := filepath.Join(root, "testdata", "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestCorruptedReferenceCountsAsFailed(t *testing.T) {
	opt := smallOptions()
	cell := cellSpec{name: "base_FFT", bench: workload.ByName("FFT", workload.ScaleSmall), sys: dsmnc.Base()}
	res, err := dsmnc.Run(cell.bench, cell.sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []bool{false, true} {
		golden, err := loadGolden(corruptGolden(t, cell.name, corrupt), []cellSpec{cell})
		if err != nil {
			t.Fatal(err)
		}
		r := &report{Metrics: map[string]metric{}}
		r.check(checkCell(cell.name, res.Refs, res.Counters, golden[cell.name]))
		finishTrace(r, nil, nil)
		frac := r.Metrics["bench.failed_frac"].Value
		if corrupt && (r.Failed != 1 || frac != 1 || !strings.Contains(r.Failures[0], "L1Hits")) {
			t.Errorf("corrupted reference: failed %d, failed_frac %v, %v", r.Failed, frac, r.Failures)
		}
		if !corrupt && (r.Failed != 0 || frac != 0) {
			t.Errorf("intact reference: failed %d, failed_frac %v, %v", r.Failed, frac, r.Failures)
		}
	}

	// fig9: a digest that is not the experiment's.
	if err := checkFig9(dsmnc.Experiment{ID: "fig9"}, fig9Reference{ExperimentSHA256: "00"}); err == nil {
		t.Error("a wrong fig9 digest passed")
	}
	// serve-mix: a served result that differs from the direct run.
	c := serveCell{Bench: "FFT", System: "vb", NCBytes: 8 << 10, NCWays: 2, Scale: "test"}
	ref := references([]serveCell{c})[c]
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	s := served{req: mixRequest{fresh: true, cell: c}, refs: ref.refs, counters: ref.counters}
	if err := checkServed(s, ref); err != nil {
		t.Errorf("an identical served result failed: %v", err)
	}
	s.counters.NCHits.Read++
	if err := checkServed(s, ref); err == nil {
		t.Error("a wrong served result passed")
	}
}

// Every latency class is reported whichever units are quiet: here the
// quietest unit is the first, which holds the only fresh operations.
func TestReportUnitsKeepsEveryClass(t *testing.T) {
	for _, steal := range [][]float64{{0, 0.1}, {0.1, 0}, {0, 0.1, 0.2}, {0.2, 0.1, 0}, {0, 0.01, 0.02}} {
		var us []unit
		for i, s := range steal {
			u := unit{wall: time.Second, cpu: time.Second, refs: 10, ops: 2, steal: s}
			lat := []float64{float64(10 * (i + 1)), float64(10*(i+1) + 1)}
			if i == 0 {
				u.fresh = lat
			} else {
				u.repeat = lat
			}
			us = append(us, u)
		}
		r := &report{Metrics: map[string]metric{}}
		reportUnits(r, us, 0.5, 100, 1)
		for _, d := range endToEnd {
			if _, ok := r.Metrics[d.name]; !ok {
				t.Errorf("steal %v: %s not reported", steal, d.name)
			}
		}
		if got := r.Metrics["fresh_p50_ms"].Value; got != 10.5 {
			t.Errorf("steal %v: fresh p50 %v, want the first unit's 10.5", steal, got)
		}
		// Repeats come from the quiet ones among the later units, each
		// operation's median over them.
		want := 20.5
		switch {
		case len(steal) == 2:
		case steal[1] <= maxSteal && steal[2] <= maxSteal:
			want = 25.5 // operations at 25 and 26
		case steal[2] < steal[1]:
			want = 30.5
		}
		if got := r.Metrics["repeat_p50_ms"].Value; got != want {
			t.Errorf("steal %v: repeat p50 %v, want %v", steal, got, want)
		}
	}
}

// The reported percentile follows the guaranteed sample count, not the
// number of units a run happened to fit; failed operations do not count.
func TestReportLatencyLevelIsFixedByDesign(t *testing.T) {
	nan := math.NaN()
	ms, perUnit := classLatencies([]unit{
		{fresh: []float64{1, 10, nan}},
		{fresh: []float64{3, 30, 5}},
	}, func(u unit) []float64 { return u.fresh })
	if want := []float64{1, 10, 3, 30, 5}; !reflect.DeepEqual(ms, want) || perUnit != 3 {
		t.Errorf("pooled %v per unit %d, want %v and 3", ms, perUnit, want)
	}
	for _, units := range []int{1, 2, 3, 5} {
		var us []unit
		for i := 0; i < units; i++ {
			us = append(us, unit{wall: time.Second, fresh: seq(40)})
		}
		r := &report{Metrics: map[string]metric{}}
		reportUnits(r, us, 1, 1, 1)
		if v, note := r.Metrics["fresh_p99_ms"].Value, r.Notes["fresh_p99_ms"]; v != 30 || !strings.HasPrefix(note, "p75 ") {
			t.Errorf("%d units: p99 reported %v (%s), want p75 = 30", units, v, note)
		}
	}
}

func TestQuietUnits(t *testing.T) {
	us := []unit{{steal: 0.3}, {steal: 0}, {steal: 0.01}, {steal: 0.2}, {steal: 0.02}}
	kept := quietUnits(us)
	if len(kept) != 3 || kept[0].steal != 0 || kept[1].steal != 0.01 || kept[2].steal != 0.02 {
		t.Errorf("kept %+v", kept)
	}
	if len(quietUnits(us[:1])) != 1 {
		t.Error("a single unit was dropped")
	}
	// Mostly noisy units: the quieter half stays.
	noisy := []unit{{steal: 0.3}, {steal: 0.2}, {steal: 0.1}, {steal: 0}}
	if kept := quietUnits(noisy); len(kept) != 2 || kept[0].steal != 0 || kept[1].steal != 0.1 {
		t.Errorf("kept %+v", kept)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostBlock{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu", GoVersion: "go1.24.0", LedgerFS: "ext4", Commit: "a"}
	a := write("a.json", report{Workload: "cells", Host: host, Metrics: map[string]metric{"wall_s": {2, "s"}}})
	host.Commit = "b"
	b := write("b.json", report{Workload: "cells", Host: host, Metrics: map[string]metric{"wall_s": {1, "s"}}})
	var out bytes.Buffer
	if err := compareReports(&out, a, b); err != nil || !strings.Contains(out.String(), "b/a 0.500") {
		t.Errorf("same host, other commit: %v\n%s", err, out.String())
	}
	host.NProc = 4
	c := write("c.json", report{Workload: "cells", Host: host, Metrics: map[string]metric{"wall_s": {1, "s"}}})
	if err := compareReports(&out, a, c); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Errorf("different hosts compared: %v", err)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the benchmark
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark has %d workloads", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
