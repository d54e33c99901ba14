package main

import (
	"crypto/sha256"
	"runtime"
	"syscall"
	"time"
)

// probe is one reading of the process-wide meters the end-to-end metrics
// are differences of.
type probe struct {
	wall  time.Time
	cpu   time.Duration // user + system, getrusage
	alloc uint64        // runtime.MemStats.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readProbe reads wall clock and CPU time only; TotalAlloc is read at
// section ends by readProbeAlloc because ReadMemStats stops the world.
func readProbe() probe { return probe{wall: time.Now(), cpu: cpuTime()} }

func readProbeAlloc() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := readProbe()
	p.alloc = ms.TotalAlloc
	return p
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// section meters one measured section in equal-count segments. The work per
// segment is fixed by count and the same in every segment (a stepped loop in
// steady state); what other tenants of the machine do to it is not. The
// stepped workloads report throughput and CPU cost of the median segment,
// which a disturbance shorter than half the section does not move and which
// no segment is left out of; allocation is a plain total — it is a count and
// repeats.
type section struct {
	segments int
	total    int // decisions the section measures
	start    probe
	marks    []probe // one per finished segment
	decided  []int   // decisions seen at each mark
}

func newSection(total, segments int) *section {
	if segments > total {
		segments = total
	}
	return &section{segments: segments, total: total}
}

func (s *section) begin() { s.start = readProbeAlloc() }

// note records that done decisions of the section have been observed; it
// closes every segment whose share of the total has been reached.
func (s *section) note(done int) {
	for len(s.marks) < s.segments-1 && done >= s.total*(len(s.marks)+1)/s.segments {
		s.marks = append(s.marks, readProbe())
		s.decided = append(s.decided, done)
	}
}

func (s *section) end(done int) {
	s.marks = append(s.marks, readProbeAlloc())
	s.decided = append(s.decided, done)
}

func (s *section) wall() time.Duration { return s.marks[len(s.marks)-1].wall.Sub(s.start.wall) }
func (s *section) cpu() time.Duration  { return s.marks[len(s.marks)-1].cpu - s.start.cpu }
func (s *section) allocBytes() uint64  { return s.marks[len(s.marks)-1].alloc - s.start.alloc }
func (s *section) done() int           { return s.decided[len(s.decided)-1] }

// perSegment returns decisions/s and CPU ms per decision of every segment.
func (s *section) perSegment() (rate, cpuMs []float64) {
	prev, prevDone := s.start, 0
	for i, m := range s.marks {
		n := float64(s.decided[i] - prevDone)
		if n > 0 {
			rate = append(rate, n/m.wall.Sub(prev.wall).Seconds())
			cpuMs = append(cpuMs, ms(m.cpu-prev.cpu)/n)
		}
		prev, prevDone = m, s.decided[i]
	}
	return rate, cpuMs
}

// calibSink keeps the spin's result live so the compiler cannot drop the loop.
var calibSink [sha256.Size]byte

// calibrate spins a fixed SHA-256 workload and returns millions of hashed
// bytes per second. It runs before and after a workload so machine drift is
// visible next to the numbers; it never adjusts one.
func calibrate() float64 {
	var buf [4096]byte
	sum := sha256.Sum256(buf[:])
	const rounds = 20000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		copy(buf[:], sum[:])
		sum = sha256.Sum256(buf[:])
	}
	el := time.Since(start).Seconds()
	calibSink = sum
	return float64(rounds) * float64(len(buf)) / el / 1e6
}
