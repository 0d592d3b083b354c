package sim

// Deterministic sharded execution: the clusters are split into
// contiguous shards and the reference stream is consumed window by
// window. A serial scan classifies every reference by the set of shards
// that have ever touched its block — a reference whose block (and its
// first-touch page placement) is private to the issuing shard commutes
// with every concurrently-running reference of the other shards, so the
// window decomposes into parallel segments separated by inline "fence"
// runs executed by the coordinator in exact trace order with all shards
// quiesced. Directory and counter storage is serialized under one
// mutex; everything a parallel segment does either touches state owned
// by exactly one shard or commutes (bitmask ORs, per-slot counter
// updates, unique-dirty-owner write-backs), so the machine state after
// every fence — and therefore the final snapshot — is bit-identical to
// the sequential engine at every shard count, including 1.
//
// Configurations whose per-reference work is inherently order-serial
// fall back to the sequential engine at construction time: an attached
// event tracer (global 1-in-K stride), the invariant checker, the
// migration engine, a limited (non-full-map) directory, and non-first-
// touch placement. The time-series sampler is supported exactly: sample
// positions become fences.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dsmnc/internal/cluster"
	"dsmnc/internal/directory"
	"dsmnc/internal/flatmap"
	"dsmnc/memsys"
	"dsmnc/trace"
)

const (
	// ParWindow is the scheduling window: how many references are
	// scanned, classified and executed as one parallel unit. Exported
	// for callers that batch their own delivery (the facade's cell
	// engine accumulates EmitBatch chunks into windows of this size).
	ParWindow = 8192
	// parMinBatch is the smallest ApplyBatch slice worth scheduling;
	// below it the sequential loop (which keeps the touch table
	// up to date through Apply) is faster than a window setup.
	parMinBatch = 256
	// parMinSeg is the shortest parallel segment worth a barrier;
	// shorter runs of shard-local references are folded into the
	// surrounding inline fence run.
	parMinSeg = 24
	// parMaxShards bounds the shard count: per-block touch masks are
	// one byte wide, and past eight ways the windows of the paper's
	// eight-cluster machine stop subdividing usefully anyway.
	parMaxShards = 8
	// parSpinBudget is how many load attempts a barrier wait spins
	// (yielding every 16th) before parking on the condvar; see
	// waitFor.
	parSpinBudget = 256
)

// pageTouch is the engine's transient record of one page: its home
// (memoized so parallel phases never consult the placement map's
// mutable memo) and the per-block masks of shards that have touched
// each block. The table is rebuilt conservatively after a restore —
// pages placed before the engine attached report every block as
// contested — so it never appears in snapshots and a machine's
// fingerprint stays independent of the shard count.
type pageTouch struct {
	home   int32
	blocks [memsys.BlocksPerPage]uint8
}

// parSeg is one entry of a window's schedule: the parallel part spans
// [prev.end, parEnd) and is executed concurrently by the shards; the
// fence part [parEnd, end) is executed inline by the coordinator in
// trace order with every shard quiesced. sample marks a segment whose
// end is a sampler position.
type parSeg struct {
	parEnd int32
	end    int32
	sample bool
}

// padded keeps each worker's arrival counter on its own cache line so
// the barrier spin of one shard does not bounce the others' lines.
type padded struct {
	v atomic.Int32
	_ [64 - 8]byte
}

// parEngine is the sharded execution engine attached to a System when
// Config.Shards > 0 and the configuration is eligible.
type parEngine struct {
	s       *System
	shards  int
	shardOf []int8 // cluster -> shard (contiguous split)

	dirMu sync.Mutex   // serializes directory + counter storage
	homes []*shardHome // per-shard network proxies

	pages    flatmap.Map[pageTouch]
	lastPage memsys.Page
	lastPT   *pageTouch
	hasLast  bool

	// Window scratch, reused across windows.
	home      []int32
	shard     []int8
	segs      []parSeg
	samplePos []int32

	phase   atomic.Int32
	aborted atomic.Bool
	arrived []padded

	// The park half of the adaptive barrier (see waitFor/post):
	// parkers counts waiters that gave up spinning and block on
	// parkCond; posters only take the mutex when one exists.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	parkers  atomic.Int32
}

// newParEngine builds the engine for s with min(want, clusters,
// parMaxShards) shards.
func newParEngine(s *System, want int) *parEngine {
	n := s.geo.Clusters
	if want > n {
		want = n
	}
	if want > parMaxShards {
		want = parMaxShards
	}
	if want < 1 {
		want = 1
	}
	e := &parEngine{
		s:       s,
		shards:  want,
		shardOf: make([]int8, n),
		home:    make([]int32, ParWindow),
		shard:   make([]int8, ParWindow),
		arrived: make([]padded, want),
	}
	e.parkCond = sync.NewCond(&e.parkMu)
	for c := 0; c < n; c++ {
		e.shardOf[c] = int8(c * want / n)
	}
	e.homes = make([]*shardHome, want)
	for i := range e.homes {
		e.homes[i] = &shardHome{s: s, e: e}
	}
	return e
}

// Shards reports the engine's effective shard count.
func (e *parEngine) Shards() int { return e.shards }

// resolve returns the home cluster of the page under p — placing it
// first-touch exactly as the sequential engine would — and records that
// cluster c's shard touched block b. local reports whether the block
// has only ever been touched by that shard (the page placement
// included: a page placed before the engine attached is contested on
// every block).
func (e *parEngine) resolve(p memsys.Page, b memsys.Block, c int) (home int, local bool) {
	var pt *pageTouch
	if e.hasLast && p == e.lastPage {
		pt = e.lastPT
	} else {
		pt = e.pages.Get(uint64(p))
		if pt == nil {
			pt = e.newPage(p, c)
		}
		e.lastPage, e.lastPT, e.hasLast = p, pt, true
	}
	bit := uint8(1) << uint8(e.shardOf[c])
	bi := int(b) & (memsys.BlocksPerPage - 1)
	m := pt.blocks[bi] | bit
	pt.blocks[bi] = m
	return int(pt.home), m == bit
}

// newPage enters p into the touch table. A page the placement map
// already knows predates the engine (a restored snapshot, or references
// applied while sharding was below the batch threshold... those flow
// through resolve too, so in practice: a restore); its touch history is
// unknown, so every block is conservatively marked contested.
func (e *parEngine) newPage(p memsys.Page, c int) *pageTouch {
	var home int32
	contested := false
	if h, ok := e.s.ft.HomeIfPlaced(p); ok {
		home, contested = int32(h), true
	} else {
		home = int32(e.s.ft.Home(p, c))
	}
	pt, _ := e.pages.Put(uint64(p))
	pt.home = home
	if contested {
		for i := range pt.blocks {
			pt.blocks[i] = 0xFF
		}
	} else {
		for i := range pt.blocks {
			pt.blocks[i] = 0
		}
	}
	return pt
}

// scan validates and classifies the window prefix, filling the per-ref
// home/shard scratch and the segment schedule. It returns how many
// references are schedulable: n < len(refs) means refs[n] is malformed
// (the caller reproduces the exact Apply error after running the valid
// prefix, exactly like the sequential batch loop).
func (e *parEngine) scan(refs []trace.Ref) int {
	s := e.s
	n := 0
	e.samplePos = e.samplePos[:0]
	ns := s.nextSample
	for ; n < len(refs); n++ {
		r := refs[n]
		pid := int(r.PID)
		if pid < 0 || pid >= len(s.pidCluster) || r.Addr > memsys.MaxAddr ||
			(r.Op != trace.Read && r.Op != trace.Write) {
			break
		}
		c := int(s.pidCluster[pid])
		home, local := e.resolve(memsys.PageOf(r.Addr), memsys.BlockOf(r.Addr), c)
		e.home[n] = int32(home)
		if local {
			e.shard[n] = e.shardOf[c]
		} else {
			e.shard[n] = -1
		}
		if s.sampleEvery > 0 && s.applied+int64(n)+1 >= ns {
			e.samplePos = append(e.samplePos, int32(n+1))
			ns += s.sampleEvery
		}
	}
	e.buildSchedule(int32(n))
	return n
}

// buildSchedule cuts the scanned prefix into alternating parallel and
// fence runs, folding parallel runs shorter than parMinSeg into the
// surrounding inline run and forcing a boundary at every sampler
// position.
func (e *parEngine) buildSchedule(n int32) {
	e.segs = e.segs[:0]
	shard := e.shard
	var i int32
	si := 0
	for i < n {
		limit, sample := n, false
		if si < len(e.samplePos) {
			limit, sample = e.samplePos[si], true
			si++
		}
		for i < limit {
			ps := i
			for i < limit && shard[i] >= 0 {
				i++
			}
			pe := i
			for i < limit && shard[i] < 0 {
				i++
			}
			fe := i
			if pe-ps < parMinSeg {
				// Too short to pay a barrier for: execute inline.
				for k := ps; k < pe; k++ {
					shard[k] = -1
				}
				if m := len(e.segs) - 1; m >= 0 && e.segs[m].end == ps && !e.segs[m].sample {
					e.segs[m].end = fe
					continue
				}
				e.segs = append(e.segs, parSeg{parEnd: ps, end: fe})
				continue
			}
			e.segs = append(e.segs, parSeg{parEnd: pe, end: fe})
		}
		if sample {
			// The boundary at `limit` is a sampler position; the
			// alternation above never runs past it, so the last
			// segment (or an empty one appended here) ends exactly
			// there and carries the flag.
			if m := len(e.segs) - 1; m >= 0 && e.segs[m].end == limit && !e.segs[m].sample {
				e.segs[m].sample = true
			} else {
				e.segs = append(e.segs, parSeg{parEnd: limit, end: limit, sample: true})
			}
		}
	}
}

// applyBatch is the sharded ApplyBatch: window by window, scan then
// execute. The contract matches the sequential loop exactly for
// malformed input and sticky errors; an internal protocol failure
// during a parallel segment (impossible for a machine that was
// consistent — kept for defense) poisons the machine via the usual
// sticky error with a best-effort applied count.
func (e *parEngine) applyBatch(refs []trace.Ref) (int, error) {
	s := e.s
	if s.err != nil {
		return 0, s.err
	}
	e.attach()
	defer e.detach()
	applied := 0
	for applied < len(refs) {
		w := refs[applied:]
		if len(w) > ParWindow {
			w = w[:ParWindow]
		}
		n := e.scan(w)
		if n > 0 {
			done, err := e.runWindow(w[:n])
			applied += done
			if err != nil {
				return applied, err
			}
		}
		if n < len(w) {
			// w[n] is malformed; Apply rejects it with the exact
			// sequential error before touching any state.
			return applied, s.Apply(w[n])
		}
	}
	return applied, nil
}

// attach routes every cluster's network traffic through its shard's
// proxy; detach restores the direct service.
func (e *parEngine) attach() {
	for c, cl := range e.s.clusters {
		cl.SetHome(e.homes[e.shardOf[c]])
	}
}

func (e *parEngine) detach() {
	for _, cl := range e.s.clusters {
		cl.SetHome(e.s)
	}
}

// applyRef drives one scanned reference through its cluster. The
// validation, placement and sampling work of Apply has already been
// done by the scan; what remains is exactly the per-reference machine
// access.
func (e *parEngine) applyRef(refs []trace.Ref, i int32) {
	s := e.s
	r := refs[i]
	pid := int(r.PID)
	c := int(s.pidCluster[pid])
	s.clusters[c].Access(int(s.pidLocal[pid]), r.Addr, r.Op == trace.Write, int(e.home[i]))
}

// runWindow executes one scanned window: the coordinator (the calling
// goroutine, which doubles as shard 0) and one worker goroutine per
// further shard phase through the schedule with spin barriers. Windows
// whose parallel share is too small skip the goroutines entirely and
// run inline — same results, no barrier cost.
func (e *parEngine) runWindow(refs []trace.Ref) (int, error) {
	s := e.s
	var par int32
	for i := range e.segs {
		start := int32(0)
		if i > 0 {
			start = e.segs[i-1].end
		}
		par += e.segs[i].parEnd - start
	}
	// Concurrency is pure scheduling here — results are bit-identical
	// either way — so fall back to the in-order path whenever fan-out
	// cannot pay: a single shard, a mostly-fenced window, or a single
	// execution core (where spin barriers only burn the quantum).
	if e.shards == 1 || int(par) < len(refs)/4 || par < parMinSeg ||
		runtime.GOMAXPROCS(0) == 1 {
		return e.runInline(refs)
	}

	e.phase.Store(0)
	e.aborted.Store(false)
	for w := range e.arrived {
		e.arrived[w].v.Store(0)
	}
	for _, h := range e.homes {
		h.err, h.errAt = nil, 0
	}
	nseg := int32(len(e.segs))
	for w := 1; w < e.shards; w++ {
		go e.worker(refs, int8(w))
	}

	for k := int32(0); k < nseg; k++ {
		seg := e.segs[k]
		start := int32(0)
		if k > 0 {
			start = e.segs[k-1].end
		}
		// The coordinator is shard 0's worker for the parallel part.
		if !e.aborted.Load() {
			for i := start; i < seg.parEnd; i++ {
				if e.shard[i] == 0 {
					e.applyRef(refs, i)
					if e.homes[0].err != nil {
						e.homes[0].noteErr(i)
						break
					}
				}
			}
		}
		e.arrived[0].v.Store(k + 1)
		for w := 1; w < e.shards; w++ {
			e.waitFor(&e.arrived[w].v, k+1)
		}
		// All shards quiesced: the fence run executes in trace order.
		if !e.aborted.Load() {
			for i := seg.parEnd; i < seg.end; i++ {
				e.applyRef(refs, i)
				if s.err != nil || e.aborted.Load() {
					if s.err != nil && e.homes[0].err == nil {
						e.homes[0].err, e.homes[0].errAt = s.err, i
						e.aborted.Store(true)
					}
					break
				}
			}
		}
		if seg.sample && !e.aborted.Load() {
			s.applied += int64(seg.end - start)
			s.nextSample += s.sampleEvery
			s.sampler.Record(s.sampleNow())
		} else if !e.aborted.Load() {
			s.applied += int64(seg.end - start)
		}
		e.post(&e.phase, k+1)
	}
	if e.aborted.Load() {
		return e.mergeErr(len(refs))
	}
	return len(refs), nil
}

// runInline executes a scanned window on the coordinator alone, in
// trace order — the degenerate schedule. Sampler fences reduce to
// ordinary positions.
func (e *parEngine) runInline(refs []trace.Ref) (int, error) {
	s := e.s
	var i int32
	for k := range e.segs {
		seg := e.segs[k]
		start := int32(0)
		if k > 0 {
			start = e.segs[k-1].end
		}
		for i = start; i < seg.end; i++ {
			e.applyRef(refs, i)
			if s.err != nil {
				return int(i), s.err
			}
			for _, h := range e.homes {
				if h.err != nil {
					s.fail(h.err)
					return int(i), s.err
				}
			}
		}
		s.applied += int64(seg.end - start)
		if seg.sample {
			s.nextSample += s.sampleEvery
			s.sampler.Record(s.sampleNow())
		}
	}
	return len(refs), nil
}

// worker is the goroutine of one non-coordinator shard: per segment,
// wait for the coordinator's release, apply this shard's references of
// the parallel part, and report arrival. On abort it keeps arriving
// (without applying) so the barriers drain.
func (e *parEngine) worker(refs []trace.Ref, me int8) {
	h := e.homes[me]
	nseg := int32(len(e.segs))
	for k := int32(0); k < nseg; k++ {
		e.waitFor(&e.phase, k)
		seg := e.segs[k]
		start := int32(0)
		if k > 0 {
			start = e.segs[k-1].end
		}
		if !e.aborted.Load() {
			for i := start; i < seg.parEnd; i++ {
				if e.shard[i] == me {
					e.applyRef(refs, i)
					if h.err != nil {
						h.noteErr(i)
						break
					}
				}
			}
		}
		e.post(&e.arrived[me].v, k+1)
	}
}

// mergeErr picks the earliest shard failure, poisons the machine, and
// reports a best-effort applied count (references at and after the
// failure position may or may not have applied — the machine is
// inconsistent either way, and Snapshot refuses it).
func (e *parEngine) mergeErr(n int) (int, error) {
	at := int32(n)
	var err error
	for _, h := range e.homes {
		if h.err != nil && (err == nil || h.errAt < at) {
			err, at = h.err, h.errAt
		}
	}
	if err == nil {
		err = fmt.Errorf("%w: sharded window aborted without a recorded cause", ErrProtocol)
	}
	e.s.fail(err)
	return int(at), e.s.err
}

// waitFor blocks until v reaches at least want. The barrier is
// adaptive: a bounded spin first, which is the whole wait on a machine
// with a core per shard (segment handoffs resolve in microseconds, and
// parking would cost more than the work being waited for), then a
// condvar park, so an oversubscribed scheduler — more shards than
// cores, the race-gate configuration — pays one futex sleep instead of
// a yield storm.
func (e *parEngine) waitFor(v *atomic.Int32, want int32) {
	for i := 0; i < parSpinBudget; i++ {
		if v.Load() >= want {
			return
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	e.parkers.Add(1)
	e.parkMu.Lock()
	for v.Load() < want {
		e.parkCond.Wait()
	}
	e.parkMu.Unlock()
	e.parkers.Add(-1)
}

// post publishes a new barrier value and wakes parked waiters. The
// broadcast happens under the park mutex: a waiter that saw the old
// value decided to park while holding it, so taking it here means the
// waiter is either fully parked (and gets the broadcast) or re-checks
// v after we stored it — no lost wakeups.
func (e *parEngine) post(v *atomic.Int32, val int32) {
	v.Store(val)
	if e.parkers.Load() > 0 {
		e.parkMu.Lock()
		e.parkCond.Broadcast()
		e.parkMu.Unlock()
	}
}

// shardHome is one shard's view of the network: cluster.HomeService
// with every directory and counter touch serialized under the engine's
// mutex, and the invalidation fan-out list copied out of the
// directory's shared scratch before use. It is used by exactly one
// goroutine at a time (its shard's), so the error slot and scratch
// need no locks of their own.
type shardHome struct {
	s     *System
	e     *parEngine
	inval []int
	err   error
	errAt int32
}

// noteErr pins the window position of the shard's first failure and
// raises the abort flag.
func (h *shardHome) noteErr(i int32) {
	h.errAt = i
	h.e.aborted.Store(true)
}

// fail records the shard's first internal error.
func (h *shardHome) fail(err error) {
	if h.err == nil {
		h.err = err
		h.e.aborted.Store(true)
	}
}

// homeOf resolves a placed page's home without touching the placement
// memo (reads may race only with other reads during a parallel
// segment: the scan placed every page the window references, and a
// victim's page was placed when it was fetched).
func (h *shardHome) homeOf(p memsys.Page) int {
	if hm, ok := h.s.ft.HomeIfPlaced(p); ok {
		return hm
	}
	h.fail(fmt.Errorf("%w: page %d referenced before placement", ErrProtocol, p))
	return 0
}

// HomeOf implements cluster.HomeService.
func (h *shardHome) HomeOf(p memsys.Page) int { return h.homeOf(p) }

// Fetch mirrors System.Fetch (the migration engine is never attached in
// sharded mode) with the directory access under the lock and the
// invalidation list copied before the fan-out runs against clusters.
func (h *shardHome) Fetch(c int, b memsys.Block, write bool) cluster.FetchReply {
	home := h.homeOf(memsys.PageOfBlock(b))
	h.e.dirMu.Lock()
	res := h.s.dirFull.Access(c, b, write, c != home)
	h.inval = append(h.inval[:0], res.Invalidate...)
	h.e.dirMu.Unlock()
	remoteDirty := false
	if write {
		for _, oc := range h.inval {
			if oc == res.FlushOwner {
				remoteDirty = true
			}
			h.invalidate(oc, b)
		}
	} else if res.FlushOwner != directory.NoOwner {
		remoteDirty = true
		h.s.clusters[res.FlushOwner].FlushDirty(b)
	}
	return cluster.FetchReply{
		Class:         res.Class,
		CapacityCount: res.CapacityCount,
		RemoteDirty:   remoteDirty,
	}
}

// Upgrade mirrors System.Upgrade with the same copy-then-fan-out shape.
func (h *shardHome) Upgrade(c int, b memsys.Block) {
	h.e.dirMu.Lock()
	h.inval = append(h.inval[:0], h.s.dirFull.Upgrade(c, b)...)
	h.e.dirMu.Unlock()
	for _, oc := range h.inval {
		h.invalidate(oc, b)
	}
}

// invalidate mirrors System.invalidate; the counter decrement of a
// false invalidation is a directory touch and goes under the lock.
func (h *shardHome) invalidate(oc int, b memsys.Block) {
	if !h.s.clusters[oc].InvalidateBlock(b) && h.s.decrDir {
		h.e.dirMu.Lock()
		h.s.dirFull.DecrementCounter(memsys.PageOfBlock(b), oc)
		h.e.dirMu.Unlock()
	}
}

// WriteBack implements cluster.HomeService.
func (h *shardHome) WriteBack(c int, b memsys.Block) {
	h.e.dirMu.Lock()
	h.s.dirFull.WriteBack(c, b)
	h.e.dirMu.Unlock()
}

// IsExclusive implements cluster.HomeService.
func (h *shardHome) IsExclusive(c int, b memsys.Block) bool {
	h.e.dirMu.Lock()
	v := h.s.dirFull.IsExclusive(c, b)
	h.e.dirMu.Unlock()
	return v
}

// SoleSharer implements cluster.HomeService.
func (h *shardHome) SoleSharer(c int, b memsys.Block) bool {
	h.e.dirMu.Lock()
	v := h.s.dirFull.SoleSharer(c, b)
	h.e.dirMu.Unlock()
	return v
}

// ResetRelocationCounter implements cluster.HomeService.
func (h *shardHome) ResetRelocationCounter(p memsys.Page, c int) {
	h.e.dirMu.Lock()
	h.s.dirFull.ResetCounter(p, c)
	h.e.dirMu.Unlock()
}
