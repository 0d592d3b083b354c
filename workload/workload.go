// Package workload synthesizes the reference traces that drive the
// simulator: one generator per SPLASH-2 benchmark of the paper's Table 3,
// plus micro-workloads for testing.
//
// The paper used address traces of SPARC binaries; those traces are not
// available, so each generator replays the *loop-nest address pattern* of
// its kernel — the blocked sweeps of LU, the six-step transpose of FFT,
// Ocean's stencils, Radix's permutation scatter, the octree walks of
// Barnes/FMM, Cholesky's supernodal panels, Raytrace's BVH walks — over a
// first-touch-placed shared address space. The study's conclusions hinge
// on spatial locality, working-set size and shape, read/write mix and
// sharing pattern, which is exactly what loop-nest replay reproduces
// (see DESIGN.md §2 for the substitution argument).
//
// Every generator is SPMD: it emits per-processor reference streams
// separated by barriers, and the Emitter interleaves them round-robin the
// way the paper's trace-driven simulator consumed its traces.
package workload

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"dsmnc/memsys"
	"dsmnc/trace"
)

// Scale selects how big a benchmark instance to generate.
type Scale int

// Scales. Test keeps unit tests fast; Medium is the default for figure
// regeneration; Large is closest to the paper's problem sizes.
const (
	ScaleTest Scale = iota
	ScaleSmall
	ScaleMedium
	ScaleLarge
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Bench is one benchmark instance: a named generator bound to a problem
// size.
type Bench struct {
	Name    string  // paper's benchmark name
	Params  string  // problem-size description at this scale
	PaperMB float64 // shared-memory size reported in Table 3

	// SharedBytes is the shared data-set size at this scale; the
	// harness sizes proportional page caches (1/5, 1/7, 1/9) from it.
	SharedBytes int64

	run func(e *Emitter)
}

// Emit generates the benchmark's trace for geometry g, delivering the
// interleaved references to sink. quantum is the round-robin interleaving
// grain (references per processor turn); values below 1 mean 1.
func (b *Bench) Emit(g memsys.Geometry, quantum int, sink func(trace.Ref)) {
	e := NewEmitter(g.Procs(), quantum, sink)
	b.run(e)
	e.Barrier()
	e.release()
}

// EmitBatch is Emit delivering the interleaved stream in chunks of at
// most 4096 references instead of one call per reference: the chunks,
// concatenated, are exactly the stream Emit produces, but the
// per-reference closure dispatch is amortized over a chunk. Chunk
// boundaries carry no meaning — a processor turn may straddle two
// chunks. The slice is only valid during the callback: the emitter
// overwrites it with the next chunk.
func (b *Bench) EmitBatch(g memsys.Geometry, quantum int, sink func([]trace.Ref)) {
	e := NewEmitter(g.Procs(), quantum, nil)
	e.batch = sink
	b.run(e)
	e.Barrier()
	e.release()
}

// Source returns the benchmark's trace as a pull Source. The entire trace
// is buffered per barrier phase; prefer Emit for large runs.
func (b *Bench) Source(g memsys.Geometry, quantum int) trace.Source {
	var refs []trace.Ref
	b.Emit(g, quantum, func(r trace.Ref) { refs = append(refs, r) })
	return trace.NewSliceSource(refs)
}

// Emitter collects per-processor reference streams and interleaves them
// round-robin into a sink. Generators call Read/Write per processor and
// Barrier at synchronization points; the emitter also flushes on its own
// when the buffered phase grows too large, preserving per-processor
// program order either way.
//
// The phase buffers are packed (see procBuf). Bench.Emit and EmitBatch
// hand their emitter back to a package idle list once done, so a cell
// starts with the buffers an earlier cell already grew instead of
// regrowing its own.
type Emitter struct {
	bufs     []procBuf
	pos      []int       // per-processor cursor of the flush in progress
	chunk    []trace.Ref // interleaved references awaiting delivery
	sink     func(trace.Ref)
	batch    func([]trace.Ref) // when non-nil, used instead of sink
	quantum  int
	buffered int
	flushAt  int
	emitted  int64
}

// procBuf is one processor's buffered phase, packed: the addresses in
// program order plus a bitset whose bit i is set when reference i is a
// write. The PID is the buffer's index. That is 8 bytes and a bit per
// reference against a trace.Ref's 16, and every memsys.Addr survives.
type procBuf struct {
	addrs  []memsys.Addr
	writes []uint64
}

// idle holds up to GOMAXPROCS released emitters, their buffers empty
// but keeping their capacity. It is a plain list rather than a
// sync.Pool: a pool parks an item in the putting P's private slot,
// where a goroutine running on another P cannot reach it, so a sweep
// that collects between cells (and so is often resumed on another P)
// regrew about half its buffers anyway. The price is that idle buffers
// stay live until reused.
var idle struct {
	sync.Mutex
	emitters []*Emitter
}

// DefaultFlushAt bounds phase buffering (references across all
// processors) before an automatic interleave-and-flush.
const DefaultFlushAt = 1 << 22

// chunkRefs is the size of the chunks flush interleaves into.
const chunkRefs = 4096

// NewEmitter builds an emitter for nproc processors.
func NewEmitter(nproc, quantum int, sink func(trace.Ref)) *Emitter {
	if quantum < 1 {
		quantum = 1
	}
	var e *Emitter
	idle.Lock()
	if n := len(idle.emitters); n > 0 {
		e = idle.emitters[n-1]
		idle.emitters = idle.emitters[:n-1]
	}
	idle.Unlock()
	if e == nil {
		e = &Emitter{chunk: make([]trace.Ref, 0, chunkRefs)}
	}
	bufs, pos := e.bufs, e.pos
	if cap(bufs) < nproc {
		bufs = append(bufs[:cap(bufs)], make([]procBuf, nproc-cap(bufs))...)
		pos = make([]int, cap(bufs))
	}
	*e = Emitter{
		bufs:    bufs[:nproc],
		pos:     pos[:nproc],
		chunk:   e.chunk,
		sink:    sink,
		quantum: quantum,
		flushAt: DefaultFlushAt,
	}
	return e
}

// release hands the emitter to the idle list. It is called once the
// stream is fully delivered (after the final Barrier, when every buffer
// is empty); the emitter must not be used afterwards.
func (e *Emitter) release() {
	e.sink, e.batch = nil, nil
	idle.Lock()
	defer idle.Unlock()
	if len(idle.emitters) < runtime.GOMAXPROCS(0) {
		idle.emitters = append(idle.emitters, e)
	}
}

// Procs returns the number of processor streams.
func (e *Emitter) Procs() int { return len(e.bufs) }

// Emitted returns how many references have been delivered to the sink.
func (e *Emitter) Emitted() int64 { return e.emitted }

// Read emits a read by processor pid at address a.
func (e *Emitter) Read(pid int, a memsys.Addr) { e.add(pid, a, trace.Read) }

// Write emits a write by processor pid at address a.
func (e *Emitter) Write(pid int, a memsys.Addr) { e.add(pid, a, trace.Write) }

func (e *Emitter) add(pid int, a memsys.Addr, op trace.Op) {
	b := &e.bufs[pid]
	n := len(b.addrs)
	if n&63 == 0 {
		b.writes = append(b.writes, 0)
	}
	b.writes[n>>6] |= uint64(op) << (n & 63)
	b.addrs = append(b.addrs, a)
	e.buffered++
	if e.buffered >= e.flushAt {
		e.flush()
	}
}

// ReadRange emits sequential reads covering [a, a+bytes) at the given
// access granularity (e.g. 8 for doubles).
func (e *Emitter) ReadRange(pid int, a memsys.Addr, bytes, grain int64) {
	e.emitRange(pid, a, bytes, grain, trace.Read)
}

// WriteRange emits sequential writes covering [a, a+bytes).
func (e *Emitter) WriteRange(pid int, a memsys.Addr, bytes, grain int64) {
	e.emitRange(pid, a, bytes, grain, trace.Write)
}

// emitRange appends a whole sequential run in chunks instead of going
// through the per-reference add path — ranges are the bulk of the
// SPLASH-2 kernels' references, and the chunked form removes a call, a
// flush check and an append bounds dance per reference, and sets a
// write run's bits a word at a time. Flush points are reproduced
// exactly: the per-reference path flushes the moment the buffered count
// reaches flushAt, so each chunk is capped at the room left before the
// threshold.
func (e *Emitter) emitRange(pid int, a memsys.Addr, bytes, grain int64, op trace.Op) {
	if grain <= 0 || bytes <= 0 {
		return
	}
	n := (bytes + grain - 1) / grain
	off := int64(0)
	for n > 0 {
		chunk := n
		if room := int64(e.flushAt - e.buffered); chunk > room {
			chunk = room
		}
		b := &e.bufs[pid]
		base := len(b.addrs)
		need := base + int(chunk)
		addrs := slices.Grow(b.addrs, int(chunk))[:need]
		for i := base; i < need; i++ {
			addrs[i] = a + memsys.Addr(off)
			off += grain
		}
		b.addrs = addrs
		words := (need + 63) >> 6
		if have := len(b.writes); have < words {
			b.writes = slices.Grow(b.writes, words-have)[:words]
			clear(b.writes[have:])
		}
		if op == trace.Write {
			for lo := base; lo < need; {
				k := min(64-lo&63, need-lo)
				b.writes[lo>>6] |= (1<<k - 1) << (lo & 63)
				lo += k
			}
		}
		e.buffered += int(chunk)
		n -= chunk
		if e.buffered >= e.flushAt {
			e.flush()
		}
	}
}

// Barrier flushes all buffered streams: every processor reaches the
// barrier before any post-barrier reference is emitted.
func (e *Emitter) Barrier() { e.flush() }

// flush interleaves the buffered phase round-robin, quantum references
// per processor turn, into the chunk, delivering it each time it fills
// and once more at the end.
func (e *Emitter) flush() {
	if e.buffered == 0 {
		return
	}
	quantum, pos, chunk := e.quantum, e.pos, e.chunk[:0]
	clear(pos)
	for remaining := e.buffered; remaining > 0; {
		for p := range e.bufs {
			b := &e.bufs[p]
			i, end := pos[p], len(b.addrs)
			if end-i > quantum {
				end = i + quantum
			}
			if i == end {
				continue
			}
			remaining -= end - i
			pos[p] = end
			pid := int32(p)
			for i < end {
				n := len(chunk)
				dst := chunk[n : n+min(end-i, cap(chunk)-n)]
				for k := range dst {
					j := i + k
					dst[k] = trace.Ref{PID: pid, Op: trace.Op(b.writes[j>>6] >> (j & 63) & 1), Addr: b.addrs[j]}
				}
				i += len(dst)
				chunk = chunk[:n+len(dst)]
				if len(chunk) == cap(chunk) {
					e.deliver(chunk)
					chunk = chunk[:0]
				}
			}
		}
	}
	if len(chunk) > 0 {
		e.deliver(chunk)
	}
	e.emitted += int64(e.buffered)
	for p := range e.bufs {
		e.bufs[p].addrs = e.bufs[p].addrs[:0]
		e.bufs[p].writes = e.bufs[p].writes[:0]
	}
	e.buffered = 0
}

// deliver hands one chunk to the batch sink, or reference by reference
// to the per-reference sink.
func (e *Emitter) deliver(refs []trace.Ref) {
	if e.batch != nil {
		e.batch(refs)
		return
	}
	for _, r := range refs {
		e.sink(r)
	}
}

// layout is a bump allocator of page-aligned regions in the shared
// address space.
type layout struct {
	next memsys.Addr
}

// region reserves bytes (rounded up to whole pages) and returns the base.
func (l *layout) region(bytes int64) memsys.Addr {
	base := l.next
	pages := (bytes + memsys.PageBytes - 1) / memsys.PageBytes
	l.next += memsys.Addr(pages) * memsys.PageBytes
	return base
}

// used returns the total bytes reserved so far.
func (l *layout) used() int64 { return int64(l.next) }

// rng is a small deterministic PRNG (xorshift64*), so generators are
// reproducible without importing math/rand state machinery per proc.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// skewPick returns an index in [0, n) with a tiered hot/cold skew
// approximating the clumped object distributions of the irregular
// SPLASH-2 applications: a quarter of picks land in the hottest 2%,
// another quarter in the hottest 10%, another in the hottest 30%, and
// the rest anywhere. The resulting per-page access counts form the
// gradient that exercises relocation thresholds and page-cache
// replacement the way full-length traces did.
func skewPick(r *rng, n int) int {
	if n <= 1 {
		return 0
	}
	pick := func(m int) int {
		if m < 1 {
			m = 1
		}
		return r.intn(m)
	}
	switch r.intn(4) {
	case 0:
		return pick(n / 50)
	case 1:
		return pick(n / 10)
	case 2:
		return pick(3 * n / 10)
	default:
		return r.intn(n)
	}
}

// All returns the paper's eight benchmarks at the given scale, in the
// order of Table 3.
func All(scale Scale) []*Bench {
	return []*Bench{
		Barnes(scale),
		Cholesky(scale),
		FFT(scale),
		FMM(scale),
		LU(scale),
		Ocean(scale),
		Radix(scale),
		Raytrace(scale),
	}
}

// ByName returns the named benchmark at the given scale, or nil.
func ByName(name string, scale Scale) *Bench {
	for _, b := range All(scale) {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Names lists the benchmark names in Table 3 order.
func Names() []string {
	return []string{"Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean", "Radix", "Raytrace"}
}
