package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// unit is one measured repetition of a workload's fixed work.
type unit struct {
	wall, cpu     time.Duration
	refs          int64         // simulated references completed
	ops           int           // operations completed
	fresh, repeat []float64     // latency of each operation, ms
	setup         time.Duration // serve-mix: the server's boot
	peakRSS       float64       // serve-mix: the server's peak RSS, MiB
	// steal is the share of the host's CPU time the hypervisor gave to
	// other guests while the unit ran.
	steal float64
}

// hostSteal is the CPU time stolen from this host so far, summed over
// its CPUs (the steal column of /proc/stat); ok is false where the
// kernel does not report it.
func hostSteal() (time.Duration, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true // USER_HZ is 100
}

// measureUnit runs one unit and records the steal share while it ran.
func measureUnit(fn func(*unit)) unit {
	var u unit
	s0, ok0 := hostSteal()
	t0 := time.Now()
	fn(&u)
	elapsed := time.Since(t0)
	if s1, ok1 := hostSteal(); ok0 && ok1 && elapsed > 0 {
		u.steal = float64(s1-s0) / float64(elapsed*time.Duration(runtime.NumCPU()))
	}
	return u
}

// maxSteal is the share of the host's CPU time the hypervisor may steal
// during a unit before the unit is set aside: on a shared host, a unit
// that lost its CPUs to another guest measures that guest, not the code.
// On a 2-vCPU host a unit with 2-5% stolen ran up to 15% slower
// than its quiet neighbours, so the limit is set below that.
const maxSteal = 0.02

// quietUnits returns the units with at most maxSteal stolen, or, when
// that leaves fewer than half of them, the half (rounded up) with the
// least stolen.
func quietUnits(us []unit) []unit {
	var quiet []unit
	for _, u := range us {
		if u.steal <= maxSteal {
			quiet = append(quiet, u)
		}
	}
	if 2*len(quiet) >= len(us) {
		return quiet
	}
	sorted := append([]unit(nil), us...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].steal < sorted[j].steal })
	return sorted[:(len(sorted)+1)/2]
}

func unitWalls(us []unit) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wall.Seconds()
	}
	return out
}

// classLatencies pools one latency class over the quiet ones among the
// units that have operations of that class (in-process workloads have
// no repeats in their first unit), and returns how many operations of
// the class one unit runs. A failed operation is NaN and not counted.
func classLatencies(us []unit, class func(unit) []float64) (ms []float64, perUnit int) {
	var with []unit
	for _, u := range us {
		if len(class(u)) > 0 {
			with = append(with, u)
		}
	}
	for _, u := range quietUnits(with) {
		perUnit = len(class(u))
		for _, x := range class(u) {
			if !math.IsNaN(x) {
				ms = append(ms, x)
			}
		}
	}
	return ms, perUnit
}

// reportUnits sets the end-to-end metrics: medians of the per-unit
// figures of the quiet units, and latency percentiles by class. setup
// < 0 takes setup_s from the units (the server's boot); peakRSS < 0
// takes peak_rss_mb from them. minKept is how many quiet units with
// operations of each class the workload guarantees; it fixes which
// percentile is reported (see reportLatency).
func reportUnits(r *report, us []unit, setup, peakRSS float64, minKept int) {
	kept := quietUnits(us)
	var wall, cpu, refsPerS, jobsPerS, setups, rss []float64
	for _, u := range kept {
		wall = append(wall, u.wall.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
		refsPerS = append(refsPerS, float64(u.refs)/u.wall.Seconds())
		jobsPerS = append(jobsPerS, float64(u.ops)/u.wall.Seconds())
		setups = append(setups, u.setup.Seconds())
		rss = append(rss, u.peakRSS)
	}
	if setup < 0 {
		setup = median(setups)
	}
	if peakRSS < 0 {
		peakRSS = median(rss)
	}
	set := func(name string, v float64) { r.Metrics[name] = metric{Value: v} }
	set("setup_s", setup)
	set("wall_s", median(wall))
	set("cpu_s", median(cpu))
	set("peak_rss_mb", peakRSS)
	set("refs_per_s", median(refsPerS))
	set("jobs_per_s", median(jobsPerS))
	for _, c := range []struct {
		name string
		ms   func(unit) []float64
	}{{"fresh", func(u unit) []float64 { return u.fresh }}, {"repeat", func(u unit) []float64 { return u.repeat }}} {
		ms, perUnit := classLatencies(us, c.ms)
		reportLatency(r, c.name, ms, perUnit*minKept)
	}
	r.Units = len(us)
	r.UnitWall = unitWalls(us)
	for _, u := range us {
		r.UnitSteal = append(r.UnitSteal, u.steal)
	}
	r.note("wall_s", fmt.Sprintf("median of %d of %d units, those with little CPU steal", len(kept), len(us)))
}

// reportLatency sets <class>_p50_ms and <class>_p99_ms. The percentile
// is the highest that design samples support under the ten-beyond rule,
// where design is the number of samples the workload guarantees; the
// value is taken over every sample. A run that fits more units than the
// guarantee thus reports the same percentile as one that fits fewer.
func reportLatency(r *report, class string, ms []float64, design int) {
	if len(ms) == 0 {
		return
	}
	for _, want := range []float64{50, 99} {
		name := fmt.Sprintf("%s_p%g_ms", class, want)
		p := level(min(design, len(ms)), want)
		r.Metrics[name] = metric{Value: at(ms, p)}
		r.note(name, fmt.Sprintf("p%g of %d samples", p, len(ms)))
	}
}
