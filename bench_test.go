package dsmnc

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus micro-benchmarks of the simulator's hot
// path. Each figure benchmark regenerates its experiment once per
// iteration at small scale and reports throughput in simulated
// references; run a single figure with e.g.
//
//	go test -bench=BenchmarkFig9 -benchtime=1x
//
// The EXPERIMENTS.md numbers come from cmd/dsmfig at medium scale.

import (
	"testing"

	"dsmnc/telemetry"
	"dsmnc/trace"
	"dsmnc/workload"
)

func benchOptions() Options {
	opt := DefaultOptions()
	opt.Scale = workload.ScaleSmall
	return opt
}

func benchExperiment(b *testing.B, fn func(Options) (Experiment, error)) {
	b.Helper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		exp, err := fn(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(exp.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (benchmark characteristics).
func BenchmarkTable3(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if rows := Table3(opt); len(rows) != 8 {
			b.Fatal("table3 incomplete")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (associativity x victim NC size).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, Fig3) }

// BenchmarkFig4 regenerates Figure 4 (inclusion vs victim NC).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, Fig4) }

// BenchmarkFig5 regenerates Figure 5 (block vs page victim indexing).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, Fig5) }

// BenchmarkFig6 regenerates Figure 6 (adaptive vs fixed threshold).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, Fig6) }

// BenchmarkFig7 regenerates Figure 7 (page-cache size sweep).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, Fig7) }

// BenchmarkFig8 regenerates Figure 8 (victim indexing with page cache).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, Fig8) }

// BenchmarkFig9 regenerates Figure 9 (remote read stalls).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, Fig9) }

// BenchmarkFig10 regenerates Figure 10 (remote data traffic).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, Fig10) }

// BenchmarkFig11 regenerates Figure 11 (vxp vs ncp relocation counters).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, Fig11) }

// BenchmarkAblations runs the ablation suite (O state, counter
// decrement, NC size/ways, threshold sweep).
func BenchmarkAblations(b *testing.B) {
	for name, fn := range Ablations() {
		fn := fn
		b.Run(name, func(b *testing.B) { benchExperiment(b, fn) })
	}
}

// BenchmarkSimulator measures raw simulation throughput per system class
// on one representative workload, in references per second. Each system
// runs twice: on the sequential engine (the series the bench-check gate
// compares against the baseline) and on the 4-shard parallel engine (a
// separate series benchjson tags with its shard count; the ratio of the
// two is the parallel speedup recorded in docs/performance.md).
func BenchmarkSimulator(b *testing.B) {
	systems := []System{Base(), VB(16 << 10), NCD(), VBPFrac(16<<10, 5), VXPFrac(16<<10, 5, 32)}
	bench := workload.Ocean(benchOptions().Scale)
	run := func(b *testing.B, sys System, opt Options) {
		var refs int64
		for i := 0; i < b.N; i++ {
			res, err := Run(bench, sys, opt)
			if err != nil {
				b.Fatal(err)
			}
			refs += res.Refs
		}
		b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
	}
	for _, sys := range systems {
		sys := sys
		b.Run(sys.Name, func(b *testing.B) { run(b, sys, benchOptions()) })
		b.Run(sys.Name+"/shards=4", func(b *testing.B) {
			opt := benchOptions()
			opt.Shards = 4
			run(b, sys, opt)
		})
	}
}

// BenchmarkWorkloadGeneration measures trace-generation throughput alone
// (no simulation), per benchmark.
func BenchmarkWorkloadGeneration(b *testing.B) {
	opt := benchOptions()
	for _, name := range workload.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var refs int64
			for i := 0; i < b.N; i++ {
				wl := workload.ByName(name, opt.Scale)
				wl.Emit(opt.Geometry, opt.Quantum, func(trace.Ref) { refs++ })
			}
			b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkEmit is the emit layer of the simulator pipeline on its own:
// one EmitBatch pass per workload into a sink that discards the chunks.
// Its B/op shows whether the phase buffers are being reused.
func BenchmarkEmit(b *testing.B) {
	opt := benchOptions()
	for _, name := range workload.Names() {
		wl := workload.ByName(name, opt.Scale)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var refs int64
			for i := 0; i < b.N; i++ {
				wl.EmitBatch(opt.Geometry, opt.Quantum, func(r []trace.Ref) { refs += int64(len(r)) })
			}
			b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkApplyHotPath measures the per-reference cost of the full
// system (L1 + bus + NC + directory) on an L1-hit-heavy stream.
func BenchmarkApplyHotPath(b *testing.B) {
	opt := benchOptions()
	machine, err := Build(workload.Sequential(1024, 1), VB(16<<10), opt)
	if err != nil {
		b.Fatal(err)
	}
	r := trace.Ref{PID: 0, Op: trace.Read, Addr: 0}
	machine.Apply(r) // warm the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.Apply(r)
	}
}

// BenchmarkApplyHotPathSampled measures the same stream with the
// time-series sampler attached at the acceptance cadence
// (-sample-every 100000), so sampling overhead shows up as a direct
// delta against BenchmarkApplyHotPath in BENCH_baseline.json.
func BenchmarkApplyHotPathSampled(b *testing.B) {
	opt := benchOptions()
	opt.Sampler = telemetry.NewSampler(100000, telemetry.DefaultCapacity)
	machine, err := Build(workload.Sequential(1024, 1), VB(16<<10), opt)
	if err != nil {
		b.Fatal(err)
	}
	r := trace.Ref{PID: 0, Op: trace.Read, Addr: 0}
	machine.Apply(r) // warm the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.Apply(r)
	}
}
