package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU returns the CPU time (user + system, all threads) a process has
// used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the numeric
	// fields start after its closing parenthesis, with state as field 3.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime: fields 14 and 15
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// hostCPU is the host's aggregate CPU time in clock ticks, from the first
// line of /proc/stat: time spent running anything, and time stolen by the
// hypervisor while a virtual CPU wanted to run.
type hostCPU struct{ busy, steal int64 }

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealShare is the share of the CPU time wanted between two readings that
// the hypervisor stole. On a shared virtual machine it swings from nothing
// to over half within seconds and stretches every wall-clock time by
// 1/(1−share), while process CPU times exclude it.
func stealShare(a, b hostCPU) float64 {
	wanted := (b.busy - a.busy) + (b.steal - a.steal)
	if wanted <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(wanted)
}

// procField returns the integer value of a "Key: value" line of a /proc file.
func procField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// procRSS returns a process's resident set size in bytes.
func procRSS(pid int) (int64, error) {
	kb, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmRSS")
	return kb * 1024, err
}

// procWriteBytes returns the bytes a process has caused to be written to
// storage.
func procWriteBytes(pid int) (int64, error) {
	return procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes")
}

// sampler polls a process's RSS and the host's CPU counters until stopped.
// The interval is short next to any op, so the RSS samples follow the heap
// the garbage collector leaves resident, and the host series gives each op
// the steal share of its own stretch of time.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	rss   []float64
	host  hostSeries
	err   error
}

const sampleInterval = 20 * time.Millisecond

func startSampler(pid int) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleInterval)
		defer t.Stop()
		for {
			rss, err := procRSS(pid)
			h, herr := readHostCPU()
			now := time.Now()
			s.mu.Lock()
			if err == nil {
				err = herr
			}
			if err != nil && s.err == nil {
				s.err = err
			}
			s.rss = append(s.rss, float64(rss))
			s.host = append(s.host, hostSample{now, h})
			s.mu.Unlock()
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the poller to exit, and returns the RSS
// samples in bytes and the host series.
func (s *sampler) stop() ([]float64, hostSeries, error) {
	close(s.stopc)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rss, s.host, s.err
}

// hostSample is one reading of the host's CPU counters.
type hostSample struct {
	at  time.Time
	cpu hostCPU
}

// hostSeries is a run of readings in time order.
type hostSeries []hostSample

// stealSpan is the shortest stretch a steal share is read over: /proc/stat
// counts in 10 ms ticks, so a shorter stretch would read as all or nothing.
const stealSpan = 200 * time.Millisecond

// stealOver is the steal share from a to b, widened about its middle to at
// least stealSpan and read between the nearest readings outside it. An
// empty or one-reading series reads 0.
func (h hostSeries) stealOver(a, b time.Time) float64 {
	if pad := (stealSpan - b.Sub(a)) / 2; pad > 0 {
		a, b = a.Add(-pad), b.Add(pad)
	}
	i := sort.Search(len(h), func(i int) bool { return h[i].at.After(a) }) - 1
	j := sort.Search(len(h), func(j int) bool { return !h[j].at.Before(b) })
	i, j = max(i, 0), min(j, len(h)-1)
	if j <= i {
		return 0
	}
	return stealShare(h[i].cpu, h[j].cpu)
}
