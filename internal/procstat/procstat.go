// Package procstat reads host-process statistics for memory reporting
// (kmrun's peak-RSS lines, the process gauges on /metrics). One shared
// implementation so the platform normalization lives in exactly one
// place.
package procstat

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// MaxRSSBytes returns the process's peak resident set size in bytes, or
// 0 if rusage is unavailable.
func MaxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	rss := int64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		return rss // darwin reports bytes
	}
	return rss * 1024 // linux reports KB
}

// RSSBytes returns the process's current resident set size in bytes, or
// 0 where it cannot be read cheaply. On Linux it comes from
// /proc/self/statm (field 2, pages); other platforms report 0 rather
// than paying for an external probe — callers treat 0 as "unknown",
// and MaxRSSBytes remains available everywhere.
func RSSBytes() int64 {
	if runtime.GOOS != "linux" {
		return 0
	}
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
