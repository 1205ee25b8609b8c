package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every result file: the numbers mean nothing
// without the machine that produced them.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LLCBytes   int64  `json:"llc_bytes"`
	// Link says what carried the real-path traffic. Always loopback: the
	// harness measures software cost, never a real link.
	Link string `json:"link"`
}

func readHostInfo() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LLCBytes:   llcBytes(),
		Link:       "loopback",
	}
}

// llcBytes reads cpu0's largest cache from sysfs; 0 when unavailable.
func llcBytes() int64 {
	var best int64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns user+system CPU time of another process from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procCPU: malformed stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procCPU: short stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procCPU: bad tick fields")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux Go supports
	return time.Duration(ut+st) * tick, nil
}

// peakRSSMB returns a process's VmHWM (peak resident set) in MB; pid 0
// means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// mallocs returns the process-wide cumulative allocation count. Reading it
// stops the world briefly, so only traced runs call it.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: the harness runs from the checkout root under the driver and
// from benchmark/ under `go test`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod at or above the working directory")
		}
		dir = parent
	}
}
