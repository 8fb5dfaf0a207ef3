package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/block"
	"github.com/bolt-lsm/bolt/internal/bloom"
	"github.com/bolt-lsm/bolt/internal/cache"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/memtable"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
	"github.com/bolt-lsm/bolt/internal/wal"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// layerInputs carries what the traced run observed into perLayer.
type layerInputs struct {
	s0, s1    bolt.Stats         // engine counters around the measured phase and drain
	p0, p1    map[string]float64 // metrics-text counters around the same window
	from, to  int64              // the same window, in trace nanoseconds
	gets      int64              // Gets the per-Get ratios divide by
	getStats  [2]bolt.Stats      // counters around those Gets
	scans     int64
	scanStats [2]bolt.Stats // counters around those scans
	writes    int64
	userBytes int64
	overhead  float64
	syncUS    float64
}

// Replay sizes: enough calls that a batch takes milliseconds, few enough
// that the replays take well under a second.
const (
	replayOps      = 20000
	memtableBytes  = 4 << 20 // ProfileBoLT's memtable size
	tableBytes     = 8 << 20
	bloomTableKeys = 1000 // keys in one 1 MiB logical SSTable of 1 KiB values
	blockBytes     = 4096
	entryPadding   = 88 // ProfileBoLT's record-format padding
)

// replayInput is the workload's own operation stream, regenerated from
// the same seed: the values written and the keys read.
type replayInput struct {
	wkeys, wvals [][]byte
	rkeys        [][]byte
}

func recordInput(w workload, seed int64, records int64) replayInput {
	g := w.generator(seed, 0, records)
	var in replayInput
	var version uint64
	for i := 0; i < replayOps; i++ {
		op := g.Next()
		switch op.Kind {
		case ycsb.OpRead, ycsb.OpScan:
			in.rkeys = append(in.rkeys, op.Key)
		default:
			version++
			in.wkeys = append(in.wkeys, op.Key)
			in.wvals = append(in.wvals, encodeValue(nil, op.Key, op.Value, version))
		}
	}
	if len(in.rkeys) == 0 {
		in.rkeys = in.wkeys
	}
	return in
}

// perLayer computes the per-layer metrics of a traced run: counter deltas
// over the measured window, background-job spans from the event stream,
// and replays that time each layer's public functions on the workload's
// keys and values.
func perLayer(res *result, rc roundConfig, tr *tracer, in layerInputs, records int64) error {
	d := func(f func(s bolt.Stats) int64) float64 { return float64(f(in.s1) - f(in.s0)) }
	dg := func(f func(s bolt.Stats) int64) float64 { return float64(f(in.getStats[1]) - f(in.getStats[0])) }
	dp := func(name string) float64 { return in.p1[name] - in.p0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	spans := tr.all()
	var window []span
	for _, s := range spans {
		if s.end >= in.from && s.start <= in.to {
			window = append(window, s)
		}
	}
	var jobs, barriers, bytesOut int64
	for _, s := range window {
		if s.kind == spanCompaction {
			jobs++
			barriers += s.count
			bytesOut += s.bytes
		}
	}

	rep, err := replay(tr, rc.w, rc.seed, records, rc.runDir)
	if err != nil {
		return err
	}

	gets := float64(in.gets)
	probed := ratio(dg(func(s bolt.Stats) int64 { return s.TablesChecked }), gets)
	skipped := ratio(dg(func(s bolt.Stats) int64 { return s.BloomSkips }), gets)
	derefs := ratio(dg(func(s bolt.Stats) int64 { return s.VLogDerefs }), gets)
	appends := ratio(d(func(s bolt.Stats) int64 { return s.VLogAppends }), float64(in.writes))
	stallNs := ratio(d(func(s bolt.Stats) int64 { return int64(s.StallTime) }), float64(in.writes))
	getExplained := rep["memtable.get_ns"] + probed*rep["bloom.may_contain_ns"] +
		(probed-skipped)*rep["sstable.get_ns"] + derefs*rep["vlog.get_ns"]
	putExplained := rep["batch.put_ns"] + rep["wal.add_record_ns"] + rep["memtable.add_ns"] +
		appends*rep["vlog.append_ns"] + stallNs
	getMean, putMean := meanDur(spans, spanGet), meanDur(spans, spanPut)
	fmt.Printf("reconcile get: traced %.0f ns = memtable %.0f + %.2f probes x bloom %.0f + %.2f reads x sstable %.0f + %.2f derefs x vlog %.0f + residue %.0f ns\n",
		getMean, rep["memtable.get_ns"], probed, rep["bloom.may_contain_ns"], probed-skipped, rep["sstable.get_ns"],
		derefs, rep["vlog.get_ns"], getMean-getExplained)
	fmt.Printf("reconcile put: traced %.0f ns = batch %.0f + wal %.0f + memtable %.0f + %.2f appends x vlog %.0f + stall %.0f + residue %.0f ns\n",
		putMean, rep["batch.put_ns"], rep["wal.add_record_ns"], rep["memtable.add_ns"], appends, rep["vlog.append_ns"],
		stallNs, putMean-putExplained)

	blockHits := d(func(s bolt.Stats) int64 { return s.BlockCacheHits })
	blockMiss := d(func(s bolt.Stats) int64 { return s.BlockCacheMisses })
	tableHits := d(func(s bolt.Stats) int64 { return s.TableCacheHits })
	tableMiss := d(func(s bolt.Stats) int64 { return s.TableCacheMisses })

	res.add("core.stall_s", d(func(s bolt.Stats) int64 { return int64(s.StallTime) })/1e9, "s", 0)
	res.add("core.stall_count", d(func(s bolt.Stats) int64 { return s.StallSlowdown + s.StallStops }), "count", 0)
	res.add("core.tables_probed_per_get", probed, "count", 0)
	res.add("core.get_residue_ns", getMean-getExplained, "ns", 0)
	res.add("core.put_residue_ns", putMean-putExplained, "ns", 0)
	for _, name := range []string{"memtable.add_ns", "memtable.add_allocs", "memtable.get_ns",
		"batch.put_ns", "wal.add_record_ns"} {
		res.add(name, rep[name], unitOf(name), 0)
	}
	res.add("vfs.sync_us", in.syncUS, "us", 0)
	res.add("bloom.skip_ratio", ratio(skipped, probed), "ratio", 0)
	for _, name := range []string{"bloom.may_contain_ns", "block.seek_ns", "sstable.get_ns",
		"sstable.iter_next_ns", "sstable.build_mb_s"} {
		res.add(name, rep[name], unitOf(name), 0)
	}
	res.add("cache.block_hit_ratio", ratio(blockHits, blockHits+blockMiss), "ratio", 0)
	res.add("cache.table_hit_ratio", ratio(tableHits, tableHits+tableMiss), "ratio", 0)
	res.add("cache.meta_bytes_per_get", ratio(dg(func(s bolt.Stats) int64 { return s.MetaBytesRead }), gets), "B", 0)
	res.add("cache.block_get_ns", rep["cache.block_get_ns"], "ns", 0)
	res.add("iterator.merging_next_ns", rep["iterator.merging_next_ns"], "ns", 0)
	res.add("compaction.jobs", float64(jobs), "count", 0)
	res.add("compaction.busy_s", busySeconds(window, spanCompaction), "s", 0)
	res.add("compaction.flush_busy_s", busySeconds(window, spanFlush), "s", 0)
	res.add("compaction.barriers_per_job", ratio(float64(barriers), float64(jobs)), "count", 0)
	res.add("compaction.bytes_out_per_user_byte", ratio(float64(bytesOut), float64(in.userBytes)), "ratio", 0)
	res.add("compaction.settled_promotions", d(func(s bolt.Stats) int64 { return s.SettledPromotions }), "count", 0)
	res.add("vfs.bytes_read_per_get", ratio(dg(func(s bolt.Stats) int64 { return s.BytesRead }), gets), "B", 0)
	scanRead := float64(in.scanStats[1].BytesRead - in.scanStats[0].BytesRead)
	res.add("vfs.bytes_read_per_scan", ratio(scanRead, float64(in.scans)), "B", 0)
	res.add("vfs.file_opens", dp("bolt_file_opens_total"), "count", 0)
	res.add("vfs.file_creates", dp("bolt_file_creates_total"), "count", 0)
	res.add("vfs.hole_punches", dp("bolt_hole_punches_total"), "count", 0)
	res.add("vfs.punch_fallbacks", dp("bolt_hole_punch_fallbacks_total"), "count", 0)
	res.add("vlog.appends_per_write", appends, "count", 0)
	res.add("vlog.derefs_per_get", derefs, "count", 0)
	res.add("vlog.gc_passes", d(func(s bolt.Stats) int64 { return s.VLogGCPasses }), "count", 0)
	res.add("vlog.reclaimed_bytes", d(func(s bolt.Stats) int64 { return s.VLogReclaimedBytes }), "B", 0)
	res.add("vlog.append_ns", rep["vlog.append_ns"], "ns", 0)
	res.add("vlog.get_ns", rep["vlog.get_ns"], "ns", 0)
	res.add("ycsb.gen_ns", rep["ycsb.gen_ns"], "ns", 0)
	res.add("trace.overhead_frac", in.overhead, "ratio", 0)

	self := selfTimes(spans)
	if err := os.MkdirAll(filepath.Join(rc.out, "trace"), 0o755); err != nil {
		return err
	}
	path := filepath.Join(rc.out, "trace", rc.w.name+".spans.jsonl")
	if err := writeSpans(path, spans, self); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	return nil
}

func unitOf(name string) string {
	switch name {
	case "memtable.add_allocs":
		return "allocs"
	case "sstable.build_mb_s":
		return "MB/s"
	}
	return "ns"
}

// replay times each layer's public functions on the workload's own keys
// and values, one child span per batch of calls, and returns the cost per
// call by metric name.
func replay(tr *tracer, w workload, seed int64, records int64, runDir string) (map[string]float64, error) {
	in := recordInput(w, seed, records)
	dir := filepath.Join(runDir, "replay")
	fs, err := vfs.NewOS(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	group, done := tr.group(w.name)
	defer done()
	layer := func(name string, calls int, fn func()) {
		out[name] = tr.layer(group, name, calls, fn)
	}

	// ycsb: the generator itself.
	g := w.generator(seed, 0, records)
	layer("ycsb.gen_ns", replayOps, func() {
		for i := 0; i < replayOps; i++ {
			g.Next()
		}
	})

	replayMemtable(in, layer, out)
	if err := replayWrite(in, fs, layer); err != nil {
		return nil, err
	}
	entries := sortedEntries(in)
	replayBloom(in, entries, layer)
	if err := replayTable(entries, fs, layer, out); err != nil {
		return nil, err
	}
	replayCache(layer)
	replayMerging(entries, layer)
	// With separation off (threshold 0) every written value is replayed,
	// so the value log's cost is measured on every workload.
	if err := replayVLog(in, w.valueThreshold, fs, layer); err != nil {
		return nil, err
	}
	return out, nil
}

type layerFunc func(name string, calls int, fn func())

// replayMemtable fills fresh memtables to ProfileBoLT's size with the
// workload's writes, then probes a full one with its reads.
func replayMemtable(in replayInput, layer layerFunc, out map[string]float64) {
	var full *memtable.MemTable
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	layer("memtable.add_ns", replayOps, func() {
		mt := memtable.New()
		for i := 0; i < replayOps; i++ {
			j := i % len(in.wkeys)
			mt.Add(keys.Seq(i+1), keys.KindSet, in.wkeys[j], in.wvals[j])
			if mt.ApproximateSize() >= memtableBytes {
				full, mt = mt, memtable.New()
			}
		}
		if full == nil {
			full = mt
		}
	})
	runtime.ReadMemStats(&ms1)
	out["memtable.add_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / replayOps

	targets := make([]keys.InternalKey, len(in.rkeys))
	for i, k := range in.rkeys {
		targets[i] = keys.MakeInternalKey(nil, k, keys.MaxSeq, keys.KindSeekMax)
	}
	layer("memtable.get_ns", replayOps, func() {
		for i := 0; i < replayOps; i++ {
			full.GetSeek(targets[i%len(targets)])
		}
	})
}

// replayWrite encodes each write as the single-entry batch a Put commits
// and appends it to a WAL file, unsynced as with SyncWrites off.
func replayWrite(in replayInput, fs vfs.FS, layer layerFunc) error {
	b := batch.New()
	layer("batch.put_ns", len(in.wkeys), func() {
		for i := range in.wkeys {
			b.Reset()
			b.Put(in.wkeys[i], in.wvals[i])
		}
	})
	reprs := make([][]byte, len(in.wkeys))
	for i := range in.wkeys {
		b := batch.New()
		b.Put(in.wkeys[i], in.wvals[i])
		reprs[i] = b.Repr()
	}
	wr, err := wal.NewWriter(fs, "replay.log")
	if err != nil {
		return err
	}
	var werr error
	layer("wal.add_record_ns", len(reprs), func() {
		for _, r := range reprs {
			if err := wr.AddRecord(r); err != nil && werr == nil {
				werr = err
			}
		}
	})
	if err := wr.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}

type entry struct {
	key keys.InternalKey
	val []byte
}

// sortedEntries returns the workload's distinct written keys as sorted
// internal keys, with their last values.
func sortedEntries(in replayInput) []entry {
	last := map[string]int{}
	for i, k := range in.wkeys {
		last[string(k)] = i
	}
	es := make([]entry, 0, len(last))
	for k, i := range last {
		es = append(es, entry{keys.MakeInternalKey(nil, []byte(k), keys.Seq(i+1), keys.KindSet), in.wvals[i]})
	}
	sort.Slice(es, func(i, j int) bool { return keys.Compare(es[i].key, es[j].key) < 0 })
	return es
}

// replayBloom builds one logical SSTable's filter from the written keys
// and probes it with the workload's reads.
func replayBloom(in replayInput, es []entry, layer layerFunc) {
	n := min(bloomTableKeys, len(es))
	ukeys := make([][]byte, n)
	for i := range ukeys {
		ukeys[i] = es[i].key.UserKey()
	}
	f := bloom.Build(ukeys, bloom.DefaultBitsPerKey)
	layer("bloom.may_contain_ns", replayOps, func() {
		for i := 0; i < replayOps; i++ {
			f.MayContain(in.rkeys[i%len(in.rkeys)])
		}
	})
}

// replayTable builds an SSTable from the written entries, then times
// block seeks, point gets through a block cache, and a full iteration.
func replayTable(es []entry, fs vfs.FS, layer layerFunc, out map[string]float64) error {
	cfg := sstable.Config{BlockSize: blockBytes, EntryPadding: entryPadding}
	f, err := fs.Create("replay.sst")
	if err != nil {
		return err
	}
	w := sstable.NewWriter(f, 0, cfg)
	var info sstable.TableInfo
	var werr error
	added, size := 0, 0
	for added < len(es) && size < tableBytes {
		size += len(es[added].key) + len(es[added].val)
		added++
	}
	layer("sstable.build_ns", added, func() {
		for _, e := range es[:added] {
			if werr = w.Add(e.key, e.val); werr != nil {
				return
			}
		}
		info, werr = w.Finish()
	})
	if err := f.Close(); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return werr
	}
	out["sstable.build_mb_s"] = float64(info.Size) / (out["sstable.build_ns"] * float64(added)) * 1e3

	rf, err := fs.Open("replay.sst")
	if err != nil {
		return err
	}
	defer rf.Close()
	bc := cache.NewBlockCache(8<<20, 0)
	r, err := sstable.OpenReader(rf, 1, 1, info.Base, info.Size, bc)
	if err != nil {
		return err
	}
	n := r.NumEntries()
	probes := make([]keys.InternalKey, replayOps)
	for i := range probes {
		probes[i] = keys.MakeInternalKey(nil, es[(i*7919)%n].key.UserKey(), keys.MaxSeq, keys.KindSeekMax)
	}
	for _, p := range probes[:min(n, len(probes))] { // warm the block cache
		r.Get(p)
	}
	layer("sstable.get_ns", len(probes), func() {
		for _, p := range probes {
			r.Get(p)
		}
	})
	it := r.NewIter(sstable.IterOpts{})
	it.First()
	layer("sstable.iter_next_ns", n-1, func() {
		for it.Next() {
		}
	})
	if err := it.Close(); err != nil {
		return err
	}

	bb := block.NewBuilder(block.DefaultRestartInterval, entryPadding)
	var inBlock []keys.InternalKey
	for _, e := range es {
		if !bb.Empty() && bb.EstimatedSize()+len(e.key)+len(e.val) > blockBytes {
			break
		}
		bb.Add(e.key, e.val)
		inBlock = append(inBlock, keys.MakeInternalKey(nil, e.key.UserKey(), keys.MaxSeq, keys.KindSeekMax))
	}
	br, err := block.NewReader(bb.Finish())
	if err != nil {
		return err
	}
	bi := br.Iter()
	layer("block.seek_ns", replayOps, func() {
		for i := 0; i < replayOps; i++ {
			bi.Seek(inBlock[i%len(inBlock)])
		}
	})
	return nil
}

// replayCache fills a default-sized block cache with 4 KiB blocks and
// times hits on them.
func replayCache(layer layerFunc) {
	const blocks = (8 << 20) / blockBytes / 2
	c := cache.NewBlockCache(8<<20, 0)
	for i := 0; i < blocks; i++ {
		c.Insert(1, int64(i)*blockBytes, make([]byte, blockBytes))
	}
	layer("cache.block_get_ns", replayOps, func() {
		for i := 0; i < replayOps; i++ {
			c.Get(1, int64((i*7919)%blocks)*blockBytes)
		}
	})
}

// mergeSources is the sorted-run count the merging iterator replay
// merges: a memtable and about one run per level of a settled tree.
const mergeSources = 6

// replayMerging deals the written entries round-robin over sorted
// sources and times Next across their merge.
func replayMerging(es []entry, layer layerFunc) {
	parts := make([][]iterator.KV, mergeSources)
	for i, e := range es {
		parts[i%mergeSources] = append(parts[i%mergeSources], iterator.KV{K: e.key, V: e.val})
	}
	srcs := make([]iterator.Iterator, mergeSources)
	for i, p := range parts {
		srcs[i] = iterator.NewSlice(p)
	}
	m := iterator.NewMerging(srcs...)
	m.First()
	layer("iterator.merging_next_ns", len(es)-1, func() {
		for m.Next() {
		}
	})
	_ = m.Close()
}

// replayVLog appends the workload's separated values to a value-log
// segment and reads each back through its pointer.
func replayVLog(in replayInput, threshold int, fs vfs.FS, layer layerFunc) error {
	w, err := vlog.NewWriter(fs, "replay.vlog", 1)
	if err != nil {
		return err
	}
	var ptrs []vlog.Pointer
	var werr error
	n := 0
	for _, v := range in.wvals {
		if len(v) >= threshold {
			n++
		}
	}
	layer("vlog.append_ns", n, func() {
		for i, v := range in.wvals {
			if len(v) < threshold {
				continue
			}
			p, err := w.Append(in.wkeys[i], v)
			if err != nil {
				werr = err
				return
			}
			ptrs = append(ptrs, p)
		}
	})
	if err := errors.Join(werr, w.Sync(), w.Close()); err != nil {
		return err
	}
	fds := cache.NewFDCacheNamed(fs, 4, 1, func(uint64) string { return "replay.vlog" })
	defer fds.Close()
	r := vlog.NewReader(fds)
	layer("vlog.get_ns", len(ptrs), func() {
		for _, p := range ptrs {
			if _, err := r.Get(p); err != nil && werr == nil {
				werr = err
			}
		}
	})
	return werr
}
