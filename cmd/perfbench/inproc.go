package main

// The in-process workloads: cells (the golden corpus, one cell at a
// time through dsmnc.Run) and fig9 (dsmnc.Fig9 on the cross-cell pool).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"dsmnc"
	"dsmnc/stats"
	"dsmnc/trace"
	"dsmnc/workload"
)

// setupBatch is how many set-up probes a run of an in-process workload
// times before each unit; setup_s is the median of all of them.
const setupBatch = 10

// minUnits is the least number of units of fixed work a run measures,
// so that repeat_* always has a sample.
const minUnits = 2

// applyChunk is how many references the instrumented pass hands
// System.ApplyBatch per timed call: large enough that the two clock
// reads per call cost well under 1% of the call.
const applyChunk = 4096

// goldenCell is the committed form of one golden-corpus cell.
type goldenCell struct {
	Refs  int64          `json:"refs"`
	Stats stats.Counters `json:"stats"`
}

// cellSpec is one (benchmark, system) simulation.
type cellSpec struct {
	name  string
	bench *workload.Bench
	sys   dsmnc.System
}

// corpusSystems are the organizations of testdata/golden.
func corpusSystems() []dsmnc.System {
	return []dsmnc.System{
		dsmnc.Base(),
		dsmnc.NC(16 << 10),
		dsmnc.VB(16 << 10),
		dsmnc.VP(16 << 10),
		dsmnc.VXPFrac(16<<10, 5, 32),
	}
}

// fig9Systems are Figure 9's columns, the infinite-DRAM baseline first.
func fig9Systems() []dsmnc.System {
	const pc512 = 512 << 10
	return []dsmnc.System{
		dsmnc.InfiniteDRAM(),
		dsmnc.Base(),
		dsmnc.NCS(),
		dsmnc.NCD(),
		dsmnc.NCP(16<<10, pc512),
		dsmnc.VBP(16<<10, pc512),
		dsmnc.VPP(16<<10, pc512),
		dsmnc.NCPFrac(16<<10, 5),
		dsmnc.VBPFrac(16<<10, 5),
		dsmnc.VPPFrac(16<<10, 5),
	}
}

// corpusName is a cell's file name in testdata/golden.
func corpusName(sys dsmnc.System, bench string) string {
	r := strings.NewReplacer("(", "-", ")", "", "/", "-", " ", "")
	return r.Replace(sys.Name) + "_" + bench
}

func smallOptions() dsmnc.Options {
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleSmall
	return opt
}

// matrix is every system × every ScaleSmall benchmark.
func matrix(systems []dsmnc.System) []cellSpec {
	var cells []cellSpec
	for _, sys := range systems {
		for _, b := range workload.All(workload.ScaleSmall) {
			cells = append(cells, cellSpec{name: corpusName(sys, b.Name), bench: b, sys: sys})
		}
	}
	return cells
}

// loadGolden reads the committed counters of every cell.
func loadGolden(root string, cells []cellSpec) (map[string]goldenCell, error) {
	out := make(map[string]goldenCell, len(cells))
	for _, c := range cells {
		raw, err := os.ReadFile(filepath.Join(root, "testdata", "golden", c.name+".json"))
		if err != nil {
			return nil, err
		}
		var g goldenCell
		if err := json.Unmarshal(raw, &g); err != nil {
			return nil, fmt.Errorf("golden %s: %w", c.name, err)
		}
		out[c.name] = g
	}
	return out, nil
}

// checkCell compares a cell's outcome with its reference.
func checkCell(name string, refs int64, got stats.Counters, want goldenCell) error {
	if refs != want.Refs {
		return fmt.Errorf("%s: refs %d, want %d", name, refs, want.Refs)
	}
	if d := stats.DiffCounters(got, want.Stats); len(d) > 0 {
		return fmt.Errorf("%s: %d counters differ from the reference, first %s", name, len(d), d[0])
	}
	return nil
}

// timeSetup appends to times the spawn-to-exit time of n runs of the
// set-up probe (cmd/perfbench/setupprobe): what a dsmnc program pays
// before its first simulation can start.
func timeSetup(probe string, n int, times *[]float64) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		out, err := exec.Command(probe).CombinedOutput()
		if err != nil {
			return fmt.Errorf("set-up probe: %w: %s", err, out)
		}
		*times = append(*times, time.Since(t0).Seconds())
	}
	return nil
}

// cellTrace is what the instrumented pass measures on one cell.
type cellTrace struct {
	build, emit, apply time.Duration
	total              time.Duration // the whole instrumented cell
	refs               int64
	counters           stats.Counters
	model              stats.Model
}

// tracedCell runs one cell through the layers, timing each from
// outside: dsmnc.Build, then one Bench.EmitBatch pass whose references
// are collected into chunks and handed to System.ApplyBatch under a
// clock. The time in ApplyBatch is apply; the rest of EmitBatch is
// trace generation (emit), the copy into the chunk included.
func tracedCell(c cellSpec, opt dsmnc.Options) (cellTrace, error) {
	var t cellTrace
	start := time.Now()
	machine, err := dsmnc.Build(c.bench, c.sys, opt)
	t.build = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("%s: %w", c.name, err)
	}
	buf := make([]trace.Ref, 0, applyChunk+opt.Quantum)
	var applyErr error
	flush := func() {
		if applyErr != nil || len(buf) == 0 {
			return
		}
		t0 := time.Now()
		_, applyErr = machine.ApplyBatch(buf)
		t.apply += time.Since(t0)
		buf = buf[:0]
	}
	t0 := time.Now()
	c.bench.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) {
		buf = append(buf, refs...)
		if len(buf) >= applyChunk {
			flush()
		}
	})
	flush()
	t.emit = time.Since(t0) - t.apply
	t.total = time.Since(start)
	if applyErr != nil {
		return t, fmt.Errorf("%s: %w", c.name, applyErr)
	}
	t.refs = machine.RefsApplied()
	t.counters = machine.Totals()
	t.model = stats.Model{Lat: opt.Latencies, Tech: c.sys.Tech()}
	return t, nil
}

// layerSpans sums the instrumented pass over the cells of a unit.
type layerSpans struct {
	mu                        sync.Mutex
	build, emit, apply, total time.Duration
	refs                      int64
	counts                    layerCounts
}

func (s *layerSpans) add(t cellTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.build += t.build
	s.emit += t.emit
	s.apply += t.apply
	s.total += t.total
	s.refs += t.refs
	s.counts.add(t.counters, t.model)
}

func (s *layerSpans) report(r *report, cells int) {
	set := func(name string, v float64) { r.Metrics[name] = metric{Value: v} }
	set("workload.emit_s", s.emit.Seconds())
	set("workload.emit_ns_per_ref", float64(s.emit.Nanoseconds())/float64(max(s.refs, 1)))
	set("sim.build_ms", millis(s.build)/float64(max(cells, 1)))
	set("sim.apply_s", s.apply.Seconds())
	set("sim.apply_ns_per_ref", float64(s.apply.Nanoseconds())/float64(max(s.refs, 1)))
	s.counts.report(r)
}

// poolEfficiency is cpu_s / (wall_s × GOMAXPROCS) of the quiet units.
func poolEfficiency(us []unit) float64 {
	var cpu, wall []float64
	for _, u := range quietUnits(us) {
		cpu = append(cpu, u.cpu.Seconds())
		wall = append(wall, u.wall.Seconds())
	}
	return median(cpu) / (median(wall) * float64(runtime.GOMAXPROCS(0)))
}

func runCells(e *env, r *report) error {
	opt := smallOptions()
	specs := matrix(corpusSystems())
	golden, err := loadGolden(e.root, specs)
	if err != nil {
		return err
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// Every cell starts from a collected heap, as a cell run on its own
	// does; the collection is outside the cell's timing and profile, so
	// a unit's wall and CPU time are the sums over its cells.
	plainUnit := func(u *unit, collect func()) {
		for _, c := range specs {
			collect()
			cpu0, t0 := selfCPU(), time.Now()
			res, err := dsmnc.Run(c.bench, c.sys, opt)
			wall, cpu := time.Since(t0), selfCPU()-cpu0
			u.wall += wall
			u.cpu += cpu
			u.fresh = append(u.fresh, millis(wall))
			if err == nil {
				err = checkCell(c.name, res.Refs, res.Counters, golden[c.name])
			}
			r.check(err)
			u.refs += res.Refs
		}
		u.ops = len(specs)
	}
	tracedUnit := func(spans *layerSpans) time.Duration {
		var wall time.Duration
		for _, c := range specs {
			runtime.GC()
			t, err := tracedCell(c, opt)
			if err == nil {
				err = checkCell(c.name, t.refs, t.counters, golden[c.name])
			}
			r.check(err)
			spans.add(t)
			wall += t.total
		}
		return wall
	}
	return measureInProcess(e, r, len(specs), plainUnit, tracedUnit)
}

// measureInProcess repeats plain units for the run's time (trace off),
// or alternates plain and instrumented units (trace on), and reports
// the metrics. Every unit starts from a collected heap. A plain unit
// may call collect to collect the heap outside its timing and outside
// the CPU profile. It leaves its operation latencies in fresh: with no
// result cache, every operation is computed afresh. Those of the units
// after the first are also repeats: the process has computed them
// before.
func measureInProcess(e *env, r *report, cells int,
	plainUnit func(u *unit, collect func()), tracedUnit func(*layerSpans) time.Duration) error {
	var units []unit
	runPlain := func() {
		u := measureUnit(func(u *unit) { plainUnit(u, runtime.GC) })
		if len(units) > 0 {
			u.repeat = u.fresh
		}
		units = append(units, u)
	}
	b := newBudget(e.seconds)
	if !e.trace {
		if e.setupProbe == "" {
			return errors.New("-setupprobe is required")
		}
		var setups []float64
		for b.more(len(units), minUnits) {
			if err := timeSetup(e.setupProbe, setupBatch, &setups); err != nil {
				return err
			}
			runtime.GC()
			runPlain()
		}
		reportUnits(r, units, median(setups), selfPeakRSSMB(), 1)
		return nil
	}
	// Each pass: a plain unit, the baseline of the tracing overhead and
	// the pool efficiency; the same plain work again under the CPU
	// profiler, which with the GC and allocation totals covers the
	// program's own path (dsmnc.Run, dsmnc.Fig9); then the instrumented
	// unit, which gives the layer spans and counts.
	var prof profiler
	var profErr error
	pauseToCollect := func() {
		if err := prof.stop(); err != nil && profErr == nil {
			profErr = err
		}
		runtime.GC()
		prof.start()
	}
	var tracedWall []float64
	var spans *layerSpans
	for b.more(len(tracedWall), 1) {
		runtime.GC()
		runPlain()
		runtime.GC()
		prof.start()
		plainUnit(&unit{}, pauseToCollect)
		if err := prof.stop(); err != nil {
			return err
		}
		if profErr != nil {
			return profErr
		}
		spans = &layerSpans{}
		runtime.GC()
		tracedWall = append(tracedWall, tracedUnit(spans).Seconds())
	}
	r.Units = len(units) + 2*len(tracedWall)
	spans.report(r, cells)
	prof.report(r)
	r.Metrics["dsmnc.pool_efficiency"] = metric{Value: poolEfficiency(units)}
	finishTrace(r, tracedWall, unitWalls(units))
	return nil
}

// fig9Reference is the committed reference of the fig9 workload.
type fig9Reference struct {
	// ExperimentSHA256 digests the JSON of the dsmnc.Fig9 Experiment.
	ExperimentSHA256 string `json:"experiment_sha256"`
	// CellsSHA256 digests every cell's reference count and counters,
	// in fig9Systems × workload order, as the instrumented pass
	// computes them.
	CellsSHA256 string `json:"cells_sha256"`
	// Refs is the number of simulated references of the whole figure.
	Refs int64 `json:"refs"`
}

const fig9RefPath = "cmd/perfbench/testdata/fig9.json"

func loadFig9Reference(root string) (fig9Reference, error) {
	var ref fig9Reference
	raw, err := os.ReadFile(filepath.Join(root, fig9RefPath))
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", fig9RefPath, err)
	}
	return ref, nil
}

func sha(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkFig9 compares a regenerated Figure 9 with the reference digest.
func checkFig9(exp dsmnc.Experiment, ref fig9Reference) error {
	if len(exp.Failed) > 0 {
		return fmt.Errorf("fig9: %d cells failed, first %s", len(exp.Failed), exp.Failed[0])
	}
	got, err := sha(exp)
	if err != nil {
		return err
	}
	if got != ref.ExperimentSHA256 {
		return fmt.Errorf("fig9: experiment digest %s, want %s", got, ref.ExperimentSHA256)
	}
	return nil
}

// tracedMatrix runs cells through tracedCell on a pool of GOMAXPROCS
// goroutines, as the figure's own pool runs them, and returns the digest
// of their outcomes in cell order.
func tracedMatrix(cells []cellSpec, opt dsmnc.Options, spans *layerSpans) (string, error) {
	type outcome struct {
		Refs  int64
		Stats stats.Counters
	}
	outs := make([]outcome, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t, err := tracedCell(cells[i], opt)
				errs[i] = err
				outs[i] = outcome{t.refs, t.counters}
				spans.add(t)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	return sha(outs)
}

func runFig9(e *env, r *report) error {
	opt := smallOptions()
	cells := matrix(fig9Systems())
	ref, err := loadFig9Reference(e.root)
	if err != nil {
		return err
	}
	plainUnit := func(u *unit, _ func()) {
		cpu0, t0 := selfCPU(), time.Now()
		exp, err := dsmnc.Fig9(opt)
		u.wall, u.cpu = time.Since(t0), selfCPU()-cpu0
		if err == nil {
			err = checkFig9(exp, ref)
		}
		r.check(err)
		u.refs, u.ops, u.fresh = ref.Refs, len(cells), []float64{millis(u.wall)}
	}
	tracedUnit := func(spans *layerSpans) time.Duration {
		t0 := time.Now()
		digest, err := tracedMatrix(cells, opt, spans)
		wall := time.Since(t0)
		if err == nil && digest != ref.CellsSHA256 {
			err = fmt.Errorf("fig9 cells: digest %s, want %s", digest, ref.CellsSHA256)
		}
		r.check(err)
		return wall
	}
	return measureInProcess(e, r, len(cells), plainUnit, tracedUnit)
}

// writeFig9Reference regenerates cmd/perfbench/testdata/fig9.json from the
// current engine (only for an intentional change of behavior).
func writeFig9Reference(root string) error {
	opt := smallOptions()
	exp, err := dsmnc.Fig9(opt)
	if err != nil {
		return err
	}
	var ref fig9Reference
	if ref.ExperimentSHA256, err = sha(exp); err != nil {
		return err
	}
	spans := &layerSpans{}
	if ref.CellsSHA256, err = tracedMatrix(matrix(fig9Systems()), opt, spans); err != nil {
		return err
	}
	ref.Refs = spans.refs
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, fig9RefPath), append(data, '\n'), 0o644)
}
