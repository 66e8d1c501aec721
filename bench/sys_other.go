//go:build !linux

package main

// maxRSSMB is unmeasured off Linux (getrusage units differ by platform).
func maxRSSMB() float64 { return 0 }

func fsType(string) string { return "unknown" }

func sampleRSS() func() float64 { return func() float64 { return 0 } }
