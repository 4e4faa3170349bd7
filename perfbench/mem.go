package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resetPeakRSS restarts the kernel's peak-RSS watermark (VmHWM) at the
// current resident set, so the peak read afterwards covers only what
// follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns VmHWM in bytes, or 0 when it is unavailable.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// memDelta is the Go runtime's allocation and GC work over a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.allocBytes - o.allocBytes, m.gcCycles - o.gcCycles, m.gcPause - o.gcPause}
}

func (m memDelta) add(o memDelta) memDelta {
	return memDelta{m.allocBytes + o.allocBytes, m.gcCycles + o.gcCycles, m.gcPause + o.gcPause}
}
