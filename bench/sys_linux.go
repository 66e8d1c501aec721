package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxRSSMB is the process's peak resident set size (getrusage maxrss, which
// Linux reports in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fsType names the file system holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// sampleRSS samples the resident set size every 100 ms until the returned
// function is called, which returns the median sample in MB.
func sampleRSS() func() float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var samples []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if b, err := os.ReadFile("/proc/self/statm"); err == nil {
					if f := strings.Fields(string(b)); len(f) > 1 {
						if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
							samples = append(samples, pages*float64(os.Getpagesize())/(1<<20))
						}
					}
				}
			case <-stop:
				done <- samples
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		s := <-done
		if len(s) == 0 {
			return 0
		}
		sort.Float64s(s)
		return s[len(s)/2]
	}
}
