// Command perfbench is the repository's benchmark. It opens ProfileBoLT
// through the public bolt API on the OS backend, in a fresh directory,
// drives one named YCSB-shaped workload with a closed loop of two client
// goroutines, checks every result against a per-key model, and prints
// every end-to-end metric by name with its unit. With -trace 1 it runs
// the workload again with spans recorded and prints the per-layer metrics
// instead. See README.md for the workloads and metrics.
//
//	go run . -workload fill -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/bolt-lsm/bolt"
)

// clients is the closed loop's size: one per vCPU of the reference host.
const clients = 2

// rounds is how many times an untraced run sets a database up and
// measures it; each metric is the median over the rounds.
const rounds = 8

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	out     string
	// scale multiplies preloaded record counts and rounds is the untraced
	// round count; the smoke test shrinks both.
	scale  float64
	rounds int
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured-phase length")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for run databases and span files")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and positive -seconds\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, scale: 1, rounds: rounds}
	res, err := run(cfg)
	if res != nil {
		if perr := res.print(os.Stdout); perr != nil {
			err = errors.Join(err, perr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run executes one run in a fresh directory that is removed on every
// path out, and returns its result. An untraced run is cfg.rounds rounds,
// each set up from scratch and measured for its share of the seconds;
// every metric is the median over the rounds. A wrong read returns both
// a result with correct=false and an error.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(filepath.Join(cfg.out, "runs"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.out, "runs"), cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// A signal stops the clients; the deferred cleanup then runs.
	var halt atomic.Bool
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	stopHalt := context.AfterFunc(ctx, func() { halt.Store(true) })
	defer stopHalt()

	syncUS, err := syncMicros(dir)
	if err != nil {
		return nil, fmt.Errorf("sync probe: %w", err)
	}
	nRounds := cfg.rounds
	if cfg.trace {
		nRounds = 1 // per-layer metrics come from one round of the same length
	}
	fmt.Printf("host %s\n", host(dir, syncUS))
	fmt.Printf("workload %s seed %d seconds %g trace %v clients %d rounds %d\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, clients, nRounds)

	total := &result{correct: true}
	var per []*result
	var setupS []float64
	for r := 0; r < nRounds && !halt.Load(); r++ {
		rc := roundConfig{
			config:  cfg,
			seed:    cfg.seed*1000 + int64(r),
			dur:     time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second)),
			dbDir:   filepath.Join(dir, fmt.Sprintf("db-%d", r)),
			runDir:  dir,
			syncUS:  syncUS,
			records: int64(float64(cfg.w.records) * cfg.scale),
		}
		res, took, err := round(rc, &halt)
		if res != nil {
			total.attempted += res.attempted
			total.failed += res.failed
			total.correct = total.correct && res.correct
		}
		if err != nil {
			total.attempted = max(total.attempted, 1)
			if res != nil && !res.correct {
				return total, err
			}
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		per = append(per, res)
	}
	if halt.Load() {
		return nil, errors.New("interrupted")
	}
	for i, m := range per[0].metrics {
		vals := make([]float64, len(per))
		n := 0
		for r, res := range per {
			vals[r] = res.metrics[i].value
			n += res.metrics[i].samples
		}
		total.add(m.name, median(vals), m.unit, n)
	}
	if !cfg.trace {
		total.add("setup_s", median(setupS), "s", len(setupS))
	}
	total.attempted = max(total.attempted, 1)
	// error_rate is failed/attempted of the result line; it is 0 on a
	// healthy run, so it is printed here rather than carried as a metric.
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n",
		float64(total.failed)/float64(total.attempted), total.failed, total.attempted)
	return total, nil
}

// roundConfig is what one round needs beyond the run's flags.
type roundConfig struct {
	config
	seed          int64
	dur           time.Duration
	dbDir, runDir string
	syncUS        float64
	records       int64
}

// round sets a database up, measures it and removes it, returning the
// round's metrics and how long its set-up took.
func round(rc roundConfig, halt *atomic.Bool) (*result, time.Duration, error) {
	var tr *tracer
	var listener func(bolt.Event)
	if rc.trace {
		tr = newTracer()
		listener = tr.onEvent
	}
	db, m, took, err := setup(rc.w, rc.dbDir, rc.seed, rc.records, listener)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	res, err := measureAndCheck(rc, db, m, tr, halt)
	if cerr := db.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("close: %w", cerr))
	}
	if rerr := os.RemoveAll(rc.dbDir); rerr != nil {
		err = errors.Join(err, rerr)
	}
	return res, took, err
}

// measureAndCheck runs the measured phase, drains, checks the database
// against the model and computes the metrics.
func measureAndCheck(rc roundConfig, db *bolt.DB, m *model, tr *tracer, halt *atomic.Bool) (*result, error) {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(db, m, rc.w.generator(rc.seed, i, int64(len(m.sorted))))
	}
	var check, v *client // the verify and probe passes' clients
	defer func() { reportFailures(append(cs, check, v)) }()
	// Garbage from set-up and earlier rounds is collected before timing.
	runtime.GC()
	s0 := db.Stats()
	p0, err := promCounters(db)
	if err != nil {
		return nil, err
	}
	dur := rc.dur
	var heap *heapSampler
	var wall time.Duration
	var overhead float64
	measureStart := time.Now()
	if rc.trace {
		overhead = tracedPhase(cs, tr, dur, halt)
	} else {
		heap = startHeapSampler()
		wall = phase(cs, dur, halt)
	}
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.finish()
	}

	var lastAck time.Time
	var attempted, failed, userBytes int64
	var reads, writes, scans samples
	var inserted, insertedVer [][]uint64
	for _, c := range cs {
		if c.wrong != nil {
			return &result{correct: false, attempted: max(c.attempted, 1), failed: c.failed}, c.wrong
		}
		attempted += c.attempted
		failed += c.failed
		userBytes += c.userBytes
		reads = append(reads, c.reads...)
		writes = append(writes, c.writes...)
		scans = append(scans, c.scans...)
		inserted = append(inserted, c.inserted)
		insertedVer = append(insertedVer, c.insertedVer)
		if c.lastAck.After(lastAck) {
			lastAck = c.lastAck
		}
	}
	completed := attempted - failed

	var idleSpan uint64
	var tlog *spanLog
	if tr != nil {
		tlog = tr.clientLog()
		idleSpan = tlog.begin()
	}
	idleStart := time.Now()
	if err := db.WaitIdle(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	drained := time.Now()
	tlog.end(idleSpan, spanWaitIdle, idleStart, drained)
	drainS := drained.Sub(lastAck).Seconds()
	s1 := db.Stats()
	p1, err := promCounters(db)
	if err != nil {
		return nil, err
	}
	alloc, err := allocatedBytes(rc.dbDir)
	if err != nil {
		return nil, err
	}
	spaceAmp := float64(alloc) / float64(m.liveBytes.Load())
	fmt.Printf("space space_amp=%.4f vfs.hole_punches=%.0f vfs.punch_fallbacks=%.0f vlog.reclaimed_bytes=%d allocated=%d live=%d\n",
		spaceAmp, p1["bolt_hole_punches_total"]-p0["bolt_hole_punches_total"],
		p1["bolt_hole_punch_fallbacks_total"]-p0["bolt_hole_punch_fallbacks_total"],
		s1.VLogReclaimedBytes-s0.VLogReclaimedBytes, alloc, m.liveBytes.Load())

	// Check the quiesced database, then probe it for the op classes the
	// measured phase lacks, so every workload reports read and scan
	// latencies.
	m.settle(inserted, insertedVer)
	live := m.liveKeys(inserted...)
	rng := rand.New(rand.NewSource(rc.seed))
	check = newClient(db, m, nil)
	check.mustExist = true
	if err := verify(check, live, rng, verifyGets, verifyScans); err != nil {
		return &result{correct: false, attempted: max(attempted, 1), failed: failed}, err
	}
	runtime.GC()
	s1b := db.Stats()
	v = newClient(db, m, nil)
	v.mustExist = true
	if tr != nil {
		v.tr = tr.clientLog()
	}
	probeFor := time.Duration(probeShare * float64(dur))
	if len(reads) == 0 {
		if err := probe(v, live, rng, false, probeFor); err != nil {
			return &result{correct: false, attempted: max(attempted, 1), failed: failed}, err
		}
	}
	s1c := db.Stats()
	if len(scans) == 0 {
		if err := probe(v, live, rng, true, probeFor); err != nil {
			return &result{correct: false, attempted: max(attempted, 1), failed: failed}, err
		}
	}
	s2 := db.Stats()
	attempted += check.attempted + v.attempted
	failed += check.failed + v.failed
	res := &result{correct: true, attempted: max(attempted, 1), failed: failed}

	if rc.trace {
		in := layerInputs{
			s0: s0, s1: s1, p0: p0, p1: p1, from: tr.ns(measureStart), to: tr.ns(drained),
			gets: int64(len(reads)), getStats: [2]bolt.Stats{s0, s1},
			scans: int64(len(scans)), scanStats: [2]bolt.Stats{s0, s1},
			writes:    int64(len(writes)),
			userBytes: userBytes, overhead: overhead, syncUS: rc.syncUS,
		}
		// Workloads without measured Gets or scans take their read-path
		// ratios from the verification reads, as their latencies do.
		if len(reads) == 0 {
			in.gets, in.getStats = int64(len(v.reads)), [2]bolt.Stats{s1b, s1c}
		}
		if len(scans) == 0 {
			in.scans, in.scanStats = int64(len(v.scans)), [2]bolt.Stats{s1c, s2}
		}
		if err := tr.checkSeq(); err != nil {
			return nil, err
		}
		if err := perLayer(res, rc, tr, in, int64(len(m.sorted))); err != nil {
			return nil, err
		}
		return res, nil
	}

	if len(reads) == 0 {
		reads = v.reads
	}
	if len(scans) == 0 {
		scans = v.scans
	}
	for _, c := range []struct {
		name string
		s    samples
	}{{"read", reads}, {"write", writes}, {"scan", scans}} {
		fmt.Printf("latency %-5s n=%d p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f us\n", c.name, len(c.s),
			quantile(c.s, .5)/1e3, quantile(c.s, .9)/1e3, quantile(c.s, .99)/1e3, quantile(c.s, .999)/1e3, quantile(c.s, 1)/1e3)
	}
	gib := float64(userBytes) / (1 << 30)
	res.add("throughput_ops_s", float64(completed)/wall.Seconds(), "ops/s", int(completed))
	res.add("read_p50_us", quantile(reads, 0.50)/1e3, "us", len(reads))
	res.add("read_p99_us", quantile(reads, 0.99)/1e3, "us", len(reads))
	res.add("write_p50_us", quantile(writes, 0.50)/1e3, "us", len(writes))
	res.add("write_p99_us", quantile(writes, 0.99)/1e3, "us", len(writes))
	res.add("scan_p50_us", quantile(scans, 0.50)/1e3, "us", len(scans))
	res.add("scan_p99_us", quantile(scans, 0.99)/1e3, "us", len(scans))
	res.add("write_amp", float64(s1.BytesWritten-s0.BytesWritten)/float64(userBytes), "x", 0)
	res.add("fsyncs_per_gib", float64(s1.Fsyncs-s0.Fsyncs)/gib, "1/GiB", 0)
	res.add("space_amp", spaceAmp, "x", 0)
	res.add("drain_s", drainS, "s", 0)
	res.add("heap_peak_mib", float64(heapPeak)/(1<<20), "MiB", 0)
	fmt.Printf("round")
	for _, m := range res.metrics {
		fmt.Printf(" %s=%.4g", m.name, m.value)
	}
	fmt.Println()
	return res, nil
}

// reportFailures prints, for each client whose operations returned
// errors, how many did and the first error.
func reportFailures(cs []*client) {
	for _, c := range cs {
		if c != nil && c.firstErr != nil {
			fmt.Printf("failures %d, first: %v\n", c.failed, c.firstErr)
		}
	}
}

// phase runs the clients concurrently until the deadline and returns the
// wall time they took.
func phase(cs []*client, dur time.Duration, halt *atomic.Bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline, halt)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// tracedPhase splits the measured phase into 16 slices traced in the
// repeating order off, on, on, off, so drift in the database's state
// (a fill slows as its tree grows) cancels between the two sides, and
// returns the tracing overhead as the fraction of untraced throughput
// lost.
func tracedPhase(cs []*client, tr *tracer, dur time.Duration, halt *atomic.Bool) float64 {
	logs := make([]*spanLog, len(cs))
	for i := range logs {
		logs[i] = tr.clientLog()
	}
	var ops [2]int64
	var wall [2]time.Duration
	const slices = 16
	for q := 0; q < slices; q++ {
		traced := q%4 == 1 || q%4 == 2
		before := int64(0)
		for i, c := range cs {
			c.tr = nil
			if traced {
				c.tr = logs[i]
			}
			before += c.attempted - c.failed
		}
		took := phase(cs, dur/slices, halt)
		after := int64(0)
		for _, c := range cs {
			after += c.attempted - c.failed
		}
		t := 0
		if traced {
			t = 1
		}
		ops[t] += after - before
		wall[t] += took
	}
	for _, c := range cs {
		c.tr = nil
	}
	untraced := float64(ops[0]) / wall[0].Seconds()
	traced := float64(ops[1]) / wall[1].Seconds()
	return 1 - traced/untraced
}
