package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsmnc/stats"
)

// budget decides when a run has measured enough: at least a minimum
// number of units, then another only if, judged by the last one, it
// would end within the run's time.
type budget struct {
	start, last time.Time
	seconds     time.Duration
	lastUnit    time.Duration
}

func newBudget(seconds time.Duration) *budget {
	now := time.Now()
	return &budget{start: now, last: now, seconds: seconds}
}

// more is called before every unit with the number already run; the time
// between two calls is one unit.
func (b *budget) more(done, min int) bool {
	now := time.Now()
	if done > 0 {
		b.lastUnit = now.Sub(b.last)
	}
	b.last = now
	return done < min || now.Sub(b.start)+b.lastUnit <= b.seconds
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set, in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procCPU is the user+system CPU time of another process, from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB is another process's peak resident set (VmHWM), in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// layerCounts accumulates the simulated event counts the per-layer
// metrics report. They are results of the simulation, identical on
// every run of the same code.
type layerCounts struct {
	c       stats.Counters
	stall   int64
	traffic int64
}

func (l *layerCounts) add(c stats.Counters, model stats.Model) {
	l.c.Add(&c)
	l.stall += model.RemoteReadStall(&c).Total()
	l.traffic += model.RemoteTraffic(&c).Total()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l *layerCounts) report(r *report) {
	c := &l.c
	set := func(name string, v float64) { r.Metrics[name] = metric{Value: v} }
	set("cache.l1_hits", float64(c.L1Hits.Total()))
	set("cache.l1_hit_ratio", ratio(c.L1Hits.Total(), c.Refs.Total()))
	set("bus.c2c", float64(c.C2C.Total()))
	set("core.nc_hits", float64(c.NCHits.Total()))
	set("core.nc_inserts", float64(c.NCInserts))
	set("core.nc_evictions", float64(c.NCEvictions))
	set("core.nc_hits_per_insert", ratio(c.NCHits.Total(), c.NCInserts))
	set("directory.remote", float64(c.Remote().Total()))
	set("directory.remote_3hop", float64(c.Remote3Hop.Total()))
	set("directory.upgrades", float64(c.Upgrades.Total()))
	set("pagecache.hits", float64(c.PCHits.Total()))
	set("pagecache.relocations", float64(c.Relocations))
	set("pagecache.hits_per_relocation", ratio(c.PCHits.Total(), c.Relocations))
	set("stats.stall_cycles", float64(l.stall))
	set("stats.remote_traffic", float64(l.traffic))
}

// profiler accumulates CPU-profile samples and allocation totals over
// one or more instrumented windows.
type profiler struct {
	buf      bytes.Buffer
	counts   map[string]int64
	total    int64
	gc       uint32
	alloc    uint64
	ms0      runtime.MemStats
	running  bool
	startErr error
}

func (p *profiler) start() {
	p.buf.Reset()
	runtime.ReadMemStats(&p.ms0)
	p.startErr = pprof.StartCPUProfile(&p.buf)
	p.running = p.startErr == nil
}

func (p *profiler) stop() error {
	if !p.running {
		return fmt.Errorf("cpu profile: %w", p.startErr)
	}
	pprof.StopCPUProfile()
	p.running = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gc += ms.NumGC - p.ms0.NumGC
	p.alloc += ms.TotalAlloc - p.ms0.TotalAlloc
	counts, total, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	if p.counts == nil {
		p.counts = map[string]int64{}
	}
	for m, n := range counts {
		p.counts[m] += n
	}
	p.total += total
	return nil
}

func (p *profiler) report(r *report) {
	for _, m := range profileModules {
		r.Metrics[m+".cpu_share"] = metric{Value: ratio(p.counts[m], p.total)}
	}
	r.Metrics["bench.profile_samples"] = metric{Value: float64(p.total)}
	r.Metrics["runtime.gc_cycles"] = metric{Value: float64(p.gc)}
	r.Metrics["runtime.alloc_mb"] = metric{Value: float64(p.alloc) / (1 << 20)}
}

// finishTrace fills the per-layer metrics common to every workload and
// sets those of layers the workload does not exercise to 0.
func finishTrace(r *report, tracedWall, plainWall []float64) {
	if p := median(plainWall); p > 0 {
		r.Metrics["bench.tracing_overhead"] = metric{Value: median(tracedWall)/p - 1}
	}
	r.Metrics["bench.failed_frac"] = metric{Value: ratio(int64(r.Failed), int64(r.Attempted))}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metric{Value: 0}
		}
	}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
