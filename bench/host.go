package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// header describes the host and the run, so two result files can be
// judged comparable before they are compared.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Width      int     `json:"pool_width"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	ScratchFS  string  `json:"scratch_fs"`
}

// commit is stamped by run.sh (-ldflags -X main.commit=...); a bare
// `go run` leaves it unknown.
var commit = "unknown"

func newHeader(o runOpts) header {
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Width:      width,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		ScratchFS:  fsType(o.scratch),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir: fsync cost (dist.wal_append_us)
// is a property of it, not of the program.
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
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// selfPeakRSSMB is this process's high-water resident set.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// childStats sums CPU seconds and peak RSS over this process's live
// children (the suite_dist workers). RUSAGE_CHILDREN only counts children
// already waited for, which would fold worker start-up and warm-up into
// the timed section, so the live numbers come from /proc.
func childStats() (cpuS, peakRSSMB float64) {
	self := strconv.Itoa(os.Getpid())
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited between glob and read
		}
		// Fields after the parenthesised command name: state ppid ... with
		// utime and stime at positions 14 and 15 of the full line.
		i := strings.LastIndexByte(string(data), ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(data[i+1:]))
		if len(f) < 13 || f[1] != self {
			continue
		}
		ut, _ := strconv.ParseFloat(f[11], 64)
		st, _ := strconv.ParseFloat(f[12], 64)
		cpuS += (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
		peakRSSMB += procPeakRSSMB(filepath.Dir(path))
	}
	return cpuS, peakRSSMB
}

func procPeakRSSMB(procDir string) float64 {
	data, err := os.ReadFile(filepath.Join(procDir, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stolenS is how long, in seconds since boot, the hypervisor ran someone
// else while a vCPU of this machine had work to do (the steal column of
// /proc/stat, summed over vCPUs, in 10 ms ticks). It reads 0 on hosts that
// do not report it.
func stolenS() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var buf [256]byte // the aggregate "cpu" line comes first and is shorter
	n, _ := f.Read(buf[:])
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / 100
}

// stamp starts an interval measured in host time: wall-clock time net of
// the time stolen from the lanes the interval keeps busy. On the shared
// reference box stolen time comes in bursts of 0–35 % that move every
// wall-clock number by as much and have nothing to do with the program;
// net of it, back-to-back readings agree within a few per cent. Every
// host-time metric is measured this way, and host.steal_share says how
// much was taken out. Stolen time is billed to the running process as CPU
// time too, so CPU seconds are corrected by the same amount.
type stamp struct {
	at     time.Time
	stolen float64
}

// mark reads the steal counter before the clock, and host reads the clock
// before the counter, so the counter reads stay outside the interval.
func mark() stamp {
	stolen := stolenS()
	return stamp{time.Now(), stolen}
}

// minAdjusted is the shortest interval worth correcting: stolen time is
// reported in 10 ms ticks.
const minAdjusted = 50 * time.Millisecond

// host is the host time since the stamp for work that keeps lanes vCPUs
// busy, and the stolen seconds it left out.
func (m stamp) host(lanes int) (time.Duration, float64) {
	wall := time.Since(m.at)
	if wall < minAdjusted {
		return wall, 0
	}
	stolen := stolenS() - m.stolen
	adj := wall - time.Duration(stolen/float64(lanes)*float64(time.Second))
	if adj < wall/4 {
		// Stolen time is summed over vCPUs: when the other vCPU (running
		// the collector, say) is stolen too, a one-lane interval is
		// over-corrected. Rare and small on average, but an interval must
		// stay positive.
		adj = wall / 4
	}
	return adj, stolen
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibNs times a fixed xorshift loop. It is not a layer of the program
// but the yardstick that says whether two runs disagree because the host
// did: it is taken at the start and the end of every run.
func calibNs() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	calibSink += x
	return float64(d.Nanoseconds())
}
