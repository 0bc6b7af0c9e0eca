package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spacebooking/internal/buildinfo"
)

// hostMeta is stamped into every results file so a number is never read
// without the machine and build it came from.
type hostMeta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOOS       string `json:"goos"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readHostMeta() hostMeta {
	bi := buildinfo.Read()
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostMeta{
		Commit:     bi.Revision,
		GoVersion:  bi.GoVersion,
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel,
	}
}

// calibSink keeps the calibration kernel's result live.
var calibSink uint64

// calibrateMs times a fixed pure-CPU kernel (integer mixing plus a
// dependent float chain, no memory traffic) and returns the fastest of
// three passes in milliseconds. It is taken before and after every run:
// when the two differ by more than noisyCalibFrac the host changed speed
// under the run and the run is flagged noisy.
func calibrateMs() float64 {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		x, f := uint64(0x9e3779b97f4a7c15), 1.0
		for i := 0; i < 8_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&7)*1e-9
		}
		calibSink += x + uint64(f)
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; pass == 0 || ms < best {
			best = ms
		}
	}
	return best
}

const noisyCalibFrac = 0.05

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (the kernel's
// hiwater_rss, i.e. VmHWM) in MB. ru_maxrss is in KiB on Linux.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
