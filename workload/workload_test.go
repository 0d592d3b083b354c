package workload

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dsmnc/memsys"
	"dsmnc/trace"
)

var testGeo = memsys.Geometry{Clusters: 8, ProcsPerCluster: 4}

func TestEmitterInterleaving(t *testing.T) {
	var got []trace.Ref
	e := NewEmitter(2, 1, func(r trace.Ref) { got = append(got, r) })
	e.Read(0, 0)
	e.Read(0, 64)
	e.Write(1, 128)
	e.Barrier()
	if len(got) != 3 {
		t.Fatalf("emitted %d refs", len(got))
	}
	// Round-robin with quantum 1: P0, P1, P0.
	wantPIDs := []int32{0, 1, 0}
	for i, w := range wantPIDs {
		if got[i].PID != w {
			t.Fatalf("ref %d from P%d, want P%d", i, got[i].PID, w)
		}
	}
	if e.Emitted() != 3 {
		t.Fatalf("Emitted = %d", e.Emitted())
	}
}

func TestEmitterAutoFlush(t *testing.T) {
	var n int
	e := NewEmitter(2, 1, func(trace.Ref) { n++ })
	e.flushAt = 10
	for i := 0; i < 25; i++ {
		e.Read(0, memsys.Addr(i*64))
	}
	if n < 20 {
		t.Fatalf("auto-flush did not run: %d delivered", n)
	}
	e.Barrier()
	if n != 25 {
		t.Fatalf("total = %d, want 25", n)
	}
}

func TestEmitterRanges(t *testing.T) {
	var got []trace.Ref
	e := NewEmitter(1, 1, func(r trace.Ref) { got = append(got, r) })
	e.ReadRange(0, 0, 64, 8)
	e.WriteRange(0, 1024, 128, 64)
	e.Barrier()
	if len(got) != 8+2 {
		t.Fatalf("ranges emitted %d refs, want 10", len(got))
	}
	if got[8].Op != trace.Write || got[8].Addr != 1024 {
		t.Fatalf("write range wrong: %v", got[8])
	}
}

func TestLayout(t *testing.T) {
	var l layout
	a := l.region(1)
	b := l.region(memsys.PageBytes + 1)
	c := l.region(100)
	if a != 0 || b != memsys.PageBytes || c != 3*memsys.PageBytes {
		t.Fatalf("regions at %d,%d,%d", a, b, c)
	}
	if l.used() != 4*memsys.PageBytes {
		t.Fatalf("used = %d", l.used())
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Fatal("zero seed not remapped")
	}
	r := newRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	if newRNG(1).intn(0) != 0 {
		t.Fatal("intn(0) != 0")
	}
}

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, b := range All(ScaleTest) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			var reads, writes int64
			procs := map[int32]bool{}
			pages := map[memsys.Page]bool{}
			b.Emit(testGeo, 4, func(r trace.Ref) {
				if r.Op == trace.Write {
					writes++
				} else {
					reads++
				}
				procs[r.PID] = true
				pages[memsys.PageOf(r.Addr)] = true
			})
			total := reads + writes
			if total < 10_000 {
				t.Fatalf("only %d refs at test scale", total)
			}
			if total > 20_000_000 {
				t.Fatalf("%d refs at test scale is too many", total)
			}
			if len(procs) != testGeo.Procs() {
				t.Fatalf("only %d/%d processors emitted refs", len(procs), testGeo.Procs())
			}
			if writes == 0 || reads == 0 {
				t.Fatalf("degenerate mix: %d reads, %d writes", reads, writes)
			}
			// The address footprint must be within the declared region.
			if int64(len(pages))*memsys.PageBytes > b.SharedBytes {
				t.Fatalf("touched %d pages > declared %d bytes", len(pages), b.SharedBytes)
			}
			if b.SharedBytes == 0 || b.PaperMB == 0 || b.Params == "" {
				t.Fatal("metadata missing")
			}
		})
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, name := range []string{"FFT", "Radix", "Barnes"} {
		run := func() []trace.Ref {
			var out []trace.Ref
			ByName(name, ScaleTest).Emit(testGeo, 4, func(r trace.Ref) { out = append(out, r) })
			return out
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s not deterministic", name)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if ByName("nosuch", ScaleTest) != nil {
		t.Fatal("ByName invented a benchmark")
	}
	names := Names()
	if len(names) != 8 {
		t.Fatalf("Names = %v", names)
	}
	for _, n := range names {
		if ByName(n, ScaleTest) == nil {
			t.Fatalf("ByName(%q) = nil", n)
		}
	}
	all := All(ScaleTest)
	if len(all) != 8 {
		t.Fatal("All != 8 benchmarks")
	}
}

func TestScaleString(t *testing.T) {
	for s, want := range map[Scale]string{
		ScaleTest: "test", ScaleSmall: "small", ScaleMedium: "medium", ScaleLarge: "large",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Scale(99).String() == "" {
		t.Error("unknown scale empty")
	}
}

func TestScalesGrow(t *testing.T) {
	for _, name := range Names() {
		small := ByName(name, ScaleTest).SharedBytes
		big := ByName(name, ScaleLarge).SharedBytes
		if big <= small {
			t.Errorf("%s: large (%d) not bigger than test (%d)", name, big, small)
		}
	}
}

func TestBenchSource(t *testing.T) {
	src := Sequential(1024, 1).Source(memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}, 1)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("Source yielded nothing")
	}
}

func TestMicroWorkloads(t *testing.T) {
	g := memsys.Geometry{Clusters: 2, ProcsPerCluster: 2}
	for _, b := range []*Bench{
		Sequential(2048, 2),
		RemoteStream(4096, 2),
		PingPong(5),
		HotScatter(1<<16, 100),
	} {
		n := 0
		b.Emit(g, 1, func(trace.Ref) { n++ })
		if n == 0 {
			t.Errorf("%s emitted nothing", b.Name)
		}
	}
}

// Per-processor program order must survive interleaving in a real
// benchmark generation.
func TestPerProcOrderPreserved(t *testing.T) {
	b := ByName("LU", ScaleTest)
	var byProc [2][]trace.Ref
	collect := func(quantum int) {
		for i := range byProc {
			byProc[i] = nil
		}
		b.Emit(testGeo, quantum, func(r trace.Ref) {
			if r.PID < 2 {
				byProc[r.PID] = append(byProc[r.PID], r)
			}
		})
	}
	collect(1)
	p0q1 := append([]trace.Ref(nil), byProc[0]...)
	collect(8)
	if !reflect.DeepEqual(p0q1, byProc[0]) {
		t.Fatal("P0 program order depends on interleaving quantum")
	}
}

// oracleFlush is the emitter's interleave as it was before the phase
// buffers were packed and delivery chunked, kept as the reference:
// phase holds each processor's buffered references in program order,
// and turn receives each processor turn as one slice.
func oracleFlush(phase [][]trace.Ref, quantum int, turn func([]trace.Ref)) {
	pos := make([]int, len(phase))
	remaining := 0
	for _, buf := range phase {
		remaining += len(buf)
	}
	for remaining > 0 {
		for p, buf := range phase {
			i := pos[p]
			end := i + quantum
			if end > len(buf) {
				end = len(buf)
			}
			if i == end {
				continue
			}
			turn(buf[i:end])
			remaining -= end - i
			pos[p] = end
		}
	}
}

// emitWith runs b's generator the way Bench.Emit and Bench.EmitBatch do,
// but with an arbitrary flush threshold.
func emitWith(b *Bench, nproc, quantum, flushAt int, sink func(trace.Ref), batch func([]trace.Ref)) {
	e := NewEmitter(nproc, quantum, sink)
	e.batch = batch
	e.flushAt = flushAt
	b.run(e)
	e.Barrier()
	e.release()
}

// phasesOf returns b's buffered phases, one per flush, each as the
// per-processor program order. With a quantum no turn can fill, a flush
// hands over every processor's buffer whole, and Emitted, read during
// delivery, still counts only the earlier flushes — so it names the
// flush each reference belongs to.
func phasesOf(b *Bench, nproc, flushAt int) [][][]trace.Ref {
	var phases [][][]trace.Ref
	flush := int64(-1)
	var e *Emitter
	e = NewEmitter(nproc, math.MaxInt, func(r trace.Ref) {
		if e.Emitted() != flush {
			flush = e.Emitted()
			phases = append(phases, make([][]trace.Ref, nproc))
		}
		ph := phases[len(phases)-1]
		ph[r.PID] = append(ph[r.PID], r)
	})
	e.flushAt = flushAt
	b.run(e)
	e.Barrier()
	e.release()
	return phases
}

// streamCheck compares a delivered stream against want reference by
// reference, without materializing it.
type streamCheck struct {
	t    *testing.T
	name string
	want []trace.Ref
	n    int
	bad  bool
}

func (c *streamCheck) ref(r trace.Ref) {
	if c.bad {
		return
	}
	if c.n >= len(c.want) || r != c.want[c.n] {
		c.bad = true
		c.t.Errorf("%s: ref %d = %v, oracle has %d refs", c.name, c.n, r, len(c.want))
		if c.n < len(c.want) {
			c.t.Errorf("%s: oracle ref %d = %v", c.name, c.n, c.want[c.n])
		}
	}
	c.n++
}

func (c *streamCheck) done() {
	if !c.bad && c.n != len(c.want) {
		c.t.Errorf("%s: delivered %d refs, oracle %d", c.name, c.n, len(c.want))
	}
}

// TestEmitterMatchesOracle: the packed, chunked emitter must deliver
// exactly the stream of the per-turn interleave it replaced, for every
// workload, through both Emit and EmitBatch, at several quanta (7 does
// not divide the chunk size, so turns straddle chunks) and flush
// thresholds, and EmitBatch must never exceed the chunk size. -short
// (the race pass) keeps only the straddling quantum.
func TestEmitterMatchesOracle(t *testing.T) {
	nproc := testGeo.Procs()
	quanta := []int{1, 4, 7}
	if testing.Short() {
		quanta = []int{7}
	}
	for _, b := range All(ScaleTest) {
		for _, flushAt := range []int{DefaultFlushAt, 1000} {
			phases := phasesOf(b, nproc, flushAt)
			for _, quantum := range quanta {
				var want []trace.Ref
				for _, ph := range phases {
					oracleFlush(ph, quantum, func(turn []trace.Ref) { want = append(want, turn...) })
				}
				name := fmt.Sprintf("%s/flushAt=%d/q=%d", b.Name, flushAt, quantum)
				one := &streamCheck{t: t, name: name + "/Emit", want: want}
				many := &streamCheck{t: t, name: name + "/EmitBatch", want: want}
				batch := func(refs []trace.Ref) {
					if len(refs) == 0 || len(refs) > chunkRefs {
						t.Fatalf("%s: EmitBatch delivered %d refs, want 1..%d", name, len(refs), chunkRefs)
					}
					for _, r := range refs {
						many.ref(r)
					}
				}
				if flushAt == DefaultFlushAt {
					b.Emit(testGeo, quantum, one.ref)
					b.EmitBatch(testGeo, quantum, batch)
				} else {
					emitWith(b, nproc, quantum, flushAt, one.ref, nil)
					emitWith(b, nproc, quantum, flushAt, nil, batch)
				}
				one.done()
				many.done()
			}
		}
	}
}

// TestEmitBatchTurnStraddlesChunk pins the chunk contract on a turn
// that does not fit: P1's first turn starts 3000 references into the
// first chunk and must continue at the head of the second.
func TestEmitBatchTurnStraddlesChunk(t *testing.T) {
	var batches [][]trace.Ref
	b := &Bench{Name: "straddle", run: func(e *Emitter) {
		for p := 0; p < 2; p++ {
			e.WriteRange(p, memsys.Addr(p)<<20, 5000*8, 8)
		}
	}}
	b.EmitBatch(memsys.Geometry{Clusters: 1, ProcsPerCluster: 2}, 3000,
		func(refs []trace.Ref) { batches = append(batches, slices.Clone(refs)) })
	if len(batches) != 3 || len(batches[0]) != chunkRefs || len(batches[1]) != chunkRefs {
		t.Fatalf("batch sizes wrong: %d batches", len(batches))
	}
	last, next := batches[0][chunkRefs-1], batches[1][0]
	if last.PID != 1 || next.PID != 1 || next.Addr != last.Addr+8 {
		t.Fatalf("turn not continued across the chunk boundary: %v then %v", last, next)
	}
	var phase [][]trace.Ref
	phase = append(phase, nil, nil)
	for _, bt := range batches {
		for _, r := range bt {
			phase[r.PID] = append(phase[r.PID], r)
		}
	}
	var want, got []trace.Ref
	oracleFlush(phase, 3000, func(turn []trace.Ref) { want = append(want, turn...) })
	for _, bt := range batches {
		got = append(got, bt...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("straddling stream differs from the oracle interleave")
	}
}

// TestEmitterPackingLossless: every memsys.Addr and both ops must come
// out of the packed buffers unchanged, through the per-reference and the
// range entry points, including write runs that start and end inside a
// bitset word.
func TestEmitterPackingLossless(t *testing.T) {
	addrs := []memsys.Addr{0, memsys.MaxAddr, memsys.MaxAddr + 1, 1 << 62, 1 << 63, ^memsys.Addr(0)}
	var want, got []trace.Ref
	e := NewEmitter(1, 1, func(r trace.Ref) { got = append(got, r) })
	add := func(op trace.Op, a memsys.Addr) { want = append(want, trace.Ref{Op: op, Addr: a}) }
	for _, a := range addrs {
		e.Read(0, a)
		add(trace.Read, a)
		e.Write(0, a)
		add(trace.Write, a)
		e.ReadRange(0, a, 3*8, 8)
		for i := 0; i < 3; i++ {
			add(trace.Read, a+memsys.Addr(i*8))
		}
		e.WriteRange(0, a, 70*64, 64)
		for i := 0; i < 70; i++ {
			add(trace.Write, a+memsys.Addr(i*64))
		}
	}
	e.Barrier()
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("ref %d = %v, want %v (%d of %d delivered)", i, got[min(i, len(got)-1)], want[i], len(got), len(want))
			}
		}
		t.Fatalf("delivered %d refs, want %d", len(got), len(want))
	}
}

// TestEmitBatchReusesBuffers guards buffer reuse: once a warm-up
// emission has grown the idle phase buffers, emitting the same trace
// again must allocate under 1% of its packed size, even with a
// collection in between.
func TestEmitBatchReusesBuffers(t *testing.T) {
	for _, b := range All(ScaleTest) {
		var refs int64
		b.EmitBatch(testGeo, 4, func(r []trace.Ref) { refs += int64(len(r)) })
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.EmitBatch(testGeo, 4, func([]trace.Ref) {})
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		packed := uint64(refs) * 8
		t.Logf("%s: %d refs, warm emission allocated %d B (%.3f%% of %d packed B)",
			b.Name, refs, alloc, 100*float64(alloc)/float64(packed), packed)
		if alloc*100 >= packed {
			t.Errorf("%s: warm EmitBatch allocated %d B, want under 1%% of the %d packed bytes", b.Name, alloc, packed)
		}
	}
}

// TestEmitConcurrentReuse: emitters running at once, as in a sweep's
// worker pool, must each get buffers of their own from the idle list
// and hand back every stream exactly as a lone emitter does, also when
// a reused emitter served a machine with fewer or more processors.
func TestEmitConcurrentReuse(t *testing.T) {
	benches := []*Bench{FFT(ScaleTest), LU(ScaleTest), Ocean(ScaleTest), Barnes(ScaleTest)}
	geos := []memsys.Geometry{testGeo, {Clusters: 2, ProcsPerCluster: 2}, {Clusters: 9, ProcsPerCluster: 5}, {Clusters: 3, ProcsPerCluster: 1}}
	digest := func(i int) uint64 {
		h := uint64(14695981039346656037)
		benches[i].EmitBatch(geos[i], 4, func(refs []trace.Ref) {
			for _, r := range refs {
				h = (h ^ uint64(r.PID)<<56 ^ uint64(r.Op)<<48 ^ uint64(r.Addr)) * 1099511628211
			}
		})
		return h
	}
	want := make([]uint64, len(benches))
	for i := range benches {
		want[i] = digest(i)
	}
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if got := digest(i); got != want[i] {
					t.Errorf("%s on %d procs, round %d: stream digest %#x, want %#x", b.Name, geos[i].Procs(), round, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestEmitterReuseAcrossMachineSizes: one emitter, reused from the idle
// list for machines of changing size, including sizes its grown
// per-processor slices hold spare capacity for.
func TestEmitterReuseAcrossMachineSizes(t *testing.T) {
	for _, procs := range []int{3, 45, 47, 48, 2, 64} {
		g := memsys.Geometry{Clusters: procs, ProcsPerCluster: 1}
		b := Sequential(4096, 1)
		var want, got []trace.Ref
		for _, ph := range phasesOf(b, procs, DefaultFlushAt) {
			oracleFlush(ph, 4, func(turn []trace.Ref) { want = append(want, turn...) })
		}
		b.Emit(g, 4, func(r trace.Ref) { got = append(got, r) })
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d procs: %d refs delivered, oracle %d", procs, len(got), len(want))
		}
	}
}
