package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process's resource counters at one instant. Deltas of
// two snapshots bracket a measured phase.
type procSnap struct {
	wall time.Time
	// cpu is user+sys time of the whole process (getrusage), which
	// keeps counting correctly when a cgroup quota throttles the process
	// and wall time stretches.
	cpu time.Duration
	// throttled is the cgroup's cumulative throttled time, -1 when the
	// host exposes no cgroup v2 cpu.stat.
	throttled time.Duration
	// allocs is the Go heap's cumulative allocated-object count.
	allocs uint64
	// gcCPU is the runtime's estimate of CPU spent in the collector.
	gcCPU float64
	// maxRSS is the process's peak resident set, in bytes.
	maxRSS int64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func snapshot() procSnap {
	s := procSnap{wall: time.Now(), throttled: cgroupThrottled()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	metrics.Read(procSamples)
	if v := procSamples[0].Value; v.Kind() == metrics.KindUint64 {
		s.allocs = v.Uint64()
	}
	if v := procSamples[1].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	return s
}

// procDelta is what happened between two snapshots.
type procDelta struct {
	wall, cpu time.Duration
	// throttled is -1 when the host has no cgroup v2 cpu.stat.
	throttled time.Duration
	allocs    uint64
	gcCPU     float64
}

func (b procSnap) to(e procSnap) procDelta {
	d := procDelta{
		wall:   e.wall.Sub(b.wall),
		cpu:    e.cpu - b.cpu,
		allocs: e.allocs - b.allocs,
		gcCPU:  e.gcCPU - b.gcCPU,
	}
	d.throttled = -1
	if b.throttled >= 0 && e.throttled >= 0 {
		d.throttled = e.throttled - b.throttled
	}
	return d
}

// gcPct is the collector's share of the process CPU time, in percent.
func (d procDelta) gcPct() float64 {
	if d.cpu <= 0 {
		return 0
	}
	return 100 * d.gcCPU / d.cpu.Seconds()
}

// throttledMS reports the throttled time in ms, 0 when unknown.
func (d procDelta) throttledMS() float64 {
	if d.throttled < 0 {
		return 0
	}
	return ms(d.throttled)
}

// cgroupThrottled reads throttled_usec from the cgroup v2 cpu.stat, or
// returns -1 when the file or the field is missing.
func cgroupThrottled() time.Duration {
	f, err := os.Open("/sys/fs/cgroup/cpu.stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || k != "throttled_usec" {
			continue
		}
		us, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return -1
		}
		return time.Duration(us) * time.Microsecond
	}
	return -1
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
