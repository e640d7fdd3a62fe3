package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; Linux fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// selfCPU is the benchmark process's user+sys CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a process's user+sys CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it
	// start past the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat cpu times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB; pid 0
// means the benchmark process itself.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks:
// all time, busy time (user, nice, system, irq, softirq) and the part
// stolen by the hypervisor.
type cpuTimes struct{ total, busy, steal int64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest...]:
	// guest time is already counted in user, so stop at steal.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseInt(s, 10, 64)
		t.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			t.busy += v
		case 7:
			t.steal = v
		}
	}
	return t
}

// hostShares records, between two /proc/stat readings, the fraction of
// all CPU time the hypervisor stole and the fraction other processes
// kept busy beyond the given CPU of the benchmark and its daemon:
// both explain a slow run without being gated.
func hostShares(diag map[string]any, a, b cpuTimes, ours time.Duration) {
	total := b.total - a.total
	if total <= 0 {
		return
	}
	steal := float64(b.steal-a.steal) / float64(total)
	diag["steal_share"] = steal
	// Past 5% steal the run's times rest on the host-speed
	// normalization (hostspeed.go) more than on the host: a close
	// comparison is better re-run than settled on such a run.
	diag["steal_valid"] = steal < 0.05
	other := float64(b.busy-a.busy) - float64(ours)/float64(clockTick)
	diag["host_other_busy_share"] = max(other, 0) / float64(total)
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
