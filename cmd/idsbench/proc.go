package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// selfCPU is this process's user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU is another process's user+system CPU time, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are plain. utime and stime are fields 14-15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat times: %v %v", pid, err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procPath names a /proc file of pid; pid 0 means this process.
func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// resetPeakRSS sets a process's VmHWM back to its current resident set,
// so the next read is the peak since now.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// rssWindow is how often the RSS sampler closes a window.
const rssWindow = time.Second

// rssSampler records another process's peak resident set per window,
// for a daemon whose ops overlap: each window reads VmHWM and then
// resets it, so one spike does not set the number for the whole run.
type rssSampler struct {
	pid   int
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func startRSSSampler(pid int) (*rssSampler, error) {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

func (s *rssSampler) run() {
	defer close(s.done)
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.sample()
			return
		case <-tick.C:
			if !s.sample() {
				return
			}
		}
	}
}

func (s *rssSampler) sample() bool {
	mb, err := peakRSSMB(s.pid)
	if err == nil {
		s.peaks = append(s.peaks, mb)
		err = resetPeakRSS(s.pid)
	}
	s.err = err
	return err == nil
}

// finish stops sampling and returns the median window peak in MB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	return median(s.peaks), nil
}

// peakRSSMB is a process's VmHWM (peak resident set) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := procPath(pid, "status")
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}
