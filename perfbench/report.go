package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// metric is one reported number with its unit and the sample count it
// was computed from (0 when it is a single measurement or a ratio).
// Ungated metrics are printed for people but left out of the result line,
// because they do not repeat closely enough between runs to carry a bound
// (see README.md).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	ungated bool
}

// ungated names the end-to-end metrics printed without a bound.
var ungated = map[string]bool{"read_p99_us": true, "write_p99_us": true, "scan_p99_us": true, "drain_s": true}

// result is what one run prints.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

// print writes one human-readable line per metric, then the result as the
// last line of standard output: one JSON object of the gated metrics.
func (r *result) print(w io.Writer) error {
	out := map[string]any{}
	for _, m := range r.metrics {
		tag := "metric"
		if m.ungated {
			tag = "ungated"
		}
		if m.samples > 0 {
			fmt.Fprintf(w, "%-7s %-32s %14.4f %-6s (%d samples)\n", tag, m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(w, "%-7s %-32s %14.4f %s\n", tag, m.name, m.value, m.unit)
		}
		if !m.ungated {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *result) add(name string, value float64, unit string, samples int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit, samples, ungated[name]})
}

// quantile returns the q-quantile of s by nearest rank; s is sorted in
// place.
func quantile(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapSampler tracks the peak live Go heap, as the last garbage
// collection measured it, while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// promCounters reads the unlabelled counters of the engine's metrics text.
func promCounters(db *bolt.DB) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

func blocksOf(info os.FileInfo) int64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Blocks * 512
	}
	return info.Size()
}

// syncMicros times File.Sync of a fresh 1 MiB write in dir, the median of
// five, in microseconds.
func syncMicros(dir string) (float64, error) {
	fs, err := vfs.NewOS(dir)
	if err != nil {
		return 0, err
	}
	data := make([]byte, 1<<20)
	var us []float64
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("sync-probe-%d", i)
		f, err := fs.Create(name)
		if err != nil {
			return 0, err
		}
		if _, err := f.Write(data); err != nil {
			_ = f.Close()
			return 0, err
		}
		start := time.Now()
		err = f.Sync()
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		if err := errors.Join(err, f.Close(), fs.Remove(name)); err != nil {
			return 0, err
		}
	}
	return median(us), nil
}

// host is the fingerprint printed with every result set; results from
// different hosts are never compared.
func host(dir string, syncUS float64) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_SOURCE")
	if commit == "" {
		commit = "unknown"
	}
	line, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "source": commit, "fs": fsType(dir), "sync_us": syncUS,
	})
	return string(line)
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
