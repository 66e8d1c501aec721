package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of the samples and how many
// samples lie beyond it (the guide's "at least ten beyond" test reads that
// count). The slice is sorted in place.
func quantile(ds []time.Duration, q float64) (time.Duration, int) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(q * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	return ds[rank-1], len(ds) - rank
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// meanOf divides a total duration by a count, 0 for no samples.
func meanOf(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// environment records what a result was measured on, so an artifact
// explains itself: toolchain, parallelism, the host's CPUs and the file
// system under the temp dir (its fsync cost shapes serve-mixed misses).
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu,omitempty"`
	TmpFS      string `json:"tmp_fs"`
}

func readEnvironment(tmp string) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		TmpFS:      fsType(tmp),
	}
}

// cpuModel is the first "model name" line of /proc/cpuinfo, or "" where
// there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// closedLoopRate is the median, over one-second slices of the run, of the
// operations completed per second, each operation counted in each slice in
// proportion to the part of its run time that fell there. A median of
// slices, unlike ops ÷ elapsed, is not moved by a few seconds in which the
// host ran slow.
func closedLoopRate(ops []op, elapsed time.Duration) float64 {
	const slice = time.Second
	n := int(elapsed / slice)
	if n < 3 {
		ok := 0
		for i := range ops {
			if ops[i].err == nil {
				ok++
			}
		}
		return float64(ok) / elapsed.Seconds()
	}
	rates := make([]float64, n)
	for i := range ops {
		o := &ops[i]
		if o.err != nil || o.lat <= 0 {
			continue
		}
		s, e := o.done-o.lat, o.done
		for k := max(0, int(s/slice)); k < n && time.Duration(k)*slice < e; k++ {
			lo, hi := max(s, time.Duration(k)*slice), min(e, time.Duration(k+1)*slice)
			if hi > lo {
				rates[k] += float64(hi-lo) / float64(o.lat)
			}
		}
	}
	sort.Float64s(rates)
	return rates[n/2]
}
