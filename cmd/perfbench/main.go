// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time and prints, as the last line of its standard output,
// one JSON object with the keys correct, attempted, failed and metrics.
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with -trace 1 they are the per-layer ones, from a
// separate instrumented pass. See README.md.
//
//	perfbench -workload cells -seed 1 -seconds 30 -trace 0 -root . \
//	    -dsmserved .bench_build/dsmserved -setupprobe .bench_build/setupprobe \
//	    -work .bench_build
//	perfbench compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists it.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
	{"refs_per_s", "1/s"}, {"jobs_per_s", "1/s"},
	{"fresh_p50_ms", "ms"}, {"fresh_p99_ms", "ms"},
	{"repeat_p50_ms", "ms"}, {"repeat_p99_ms", "ms"},
}

// perLayer are the metrics of single layers; every workload reports all
// of them with -trace 1, 0 for a layer the workload does not exercise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.emit_s", "s"}, {"workload.emit_ns_per_ref", "ns"},
		{"sim.build_ms", "ms"}, {"sim.apply_s", "s"}, {"sim.apply_ns_per_ref", "ns"},
		{"cache.l1_hits", "count"}, {"cache.l1_hit_ratio", "ratio"},
		{"bus.c2c", "count"},
		{"core.nc_hits", "count"}, {"core.nc_inserts", "count"}, {"core.nc_evictions", "count"},
		{"core.nc_hits_per_insert", "ratio"},
		{"directory.remote", "count"}, {"directory.remote_3hop", "count"}, {"directory.upgrades", "count"},
		{"pagecache.hits", "count"}, {"pagecache.relocations", "count"}, {"pagecache.hits_per_relocation", "ratio"},
		{"stats.stall_cycles", "cycles"}, {"stats.remote_traffic", "blocks"},
		{"dsmnc.pool_efficiency", "ratio"},
		{"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MB"},
		{"serve.parse_us", "us"}, {"serve.fingerprint_us", "us"},
		{"serve.submit_us", "us"}, {"serve.submit_noledger_us", "us"}, {"serve.ledger_recover_ms", "ms"},
		{"serve.queue_wait_ms", "ms"}, {"serve.run_ms", "ms"}, {"serve.engine_ms", "ms"}, {"serve.overhead_ms", "ms"},
		{"serve.deduped", "count"}, {"serve.dedup_ratio", "ratio"}, {"serve.shed", "count"},
		{"serve.failed", "count"}, {"serve.ledger_errors", "count"},
		{"dsmserved.post_ms", "ms"}, {"dsmserved.stream_ms", "ms"}, {"dsmserved.result_ms", "ms"},
		{"bench.tracing_overhead", "ratio"}, {"bench.failed_frac", "ratio"}, {"bench.profile_samples", "count"},
	}
	for _, m := range profileModules {
		defs = append(defs, metricDef{m + ".cpu_share", "ratio"})
	}
	return defs
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one run; the last stdout line is its
// summary.
type report struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostBlock `json:"host"`
	Units    int       `json:"units"`
	// UnitWall is the wall time of every measured unit of fixed work,
	// in seconds, so a run's own spread can be read off.
	UnitWall []float64 `json:"unit_wall_s,omitempty"`
	// UnitSteal is the share of the host's CPU time stolen by the
	// hypervisor during each unit.
	UnitSteal []float64         `json:"unit_steal,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

const maxFailureNotes = 20

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation, failed when err is non-nil.
func (r *report) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *report) note(name, text string) {
	if r.Notes == nil {
		r.Notes = map[string]string{}
	}
	r.Notes[name] = text
}

// env is what a workload runs against.
type env struct {
	root       string // checkout root: golden corpus and references
	dsmserved  string // built dsmserved binary
	setupProbe string // built setupprobe binary
	work       string // scratch directory inside the checkout
	seed       int64
	seconds    time.Duration
	trace      bool
}

// workloads run their measurement and fill the report's metrics with
// every end-to-end metric (trace off) or every per-layer one (trace on).
var workloads = map[string]func(e *env, r *report) error{
	"cells":     runCells,
	"fig9":      runFig9,
	"serve-mix": runServeMix,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare <a.json> <b.json>")
			os.Exit(2)
		}
		if err := compareReports(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "reference" {
		// Regenerates the committed fig9 reference from the current
		// engine: perfbench reference <checkout root>.
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: perfbench reference <checkout root>")
			os.Exit(2)
		}
		if err := writeFig9Reference(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name      = flag.String("workload", "", "workload: cells, fig9 or serve-mix")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 30, "measurement time in seconds")
		trace     = flag.Int("trace", 0, "1 runs the instrumented pass and reports per-layer metrics")
		root      = flag.String("root", ".", "checkout root")
		dsmserved = flag.String("dsmserved", "", "dsmserved binary (serve-mix)")
		work      = flag.String("work", ".bench_build", "scratch directory")
		probe     = flag.String("setupprobe", "", "built setupprobe binary (cells, fig9)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root, *dsmserved, *probe, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, root, dsmserved, probe, work string) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (cells, fig9, serve-mix)", name)
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	// Each run gets its own scratch directory, removed at the end.
	scratch := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{root: root, dsmserved: dsmserved, setupProbe: probe, work: scratch, seed: seed,
		seconds: time.Duration(seconds) * time.Second, trace: trace}
	r := &report{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Host: currentHost(root, scratch), Metrics: map[string]metric{}}
	if err := fn(e, r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if r.Attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", name)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		out[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	r.Metrics = out
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := saveReport(work, r, full); err != nil {
		return err
	}
	printSummary(r)
	fmt.Println(string(full))
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// saveReport keeps the full report under <work>/results for
// `perfbench compare`.
func saveReport(work string, r *report, data []byte) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, mode)), data, 0o644)
}

// printSummary writes a readable table of the run to stderr.
func printSummary(r *report) {
	fmt.Fprintf(os.Stderr, "%s seed %d: %d units, %d/%d operations failed, host %d x %s, %s\n",
		r.Workload, r.Seed, r.Units, r.Failed, r.Attempted, r.Host.NProc, r.Host.CPUModel, r.Host.Commit)
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-30s %14.6g %s", n, m.Value, m.Unit)
		if note, ok := r.Notes[n]; ok {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(os.Stderr, strings.TrimRight(line, " "))
	}
}
