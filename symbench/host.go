package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks reads the host's aggregate CPU counters: ticks stolen by the
// hypervisor and ticks in total. Steal is CPU time a virtual machine was
// ready to run but not scheduled, the main source of run-to-run noise on
// a shared host; the benchmark reports it next to its figures. Both are
// 0 where /proc/stat is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
