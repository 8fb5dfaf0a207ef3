package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// workload is one named input set the benchmark runs. Record counts are
// the full size; config.scale shrinks them for the smoke test.
type workload struct {
	name string
	mix  ycsb.Workload
	// records is the preloaded record count.
	records   int64
	valueSize int
	sizeDist  ycsb.ValueSizeDist
	// blockCache overrides the block cache size (0 keeps the default).
	blockCache int64
	// valueThreshold enables key-value separation (0 keeps it off).
	valueThreshold int
	// settle compacts the preloaded tree into its steady, fully merged
	// shape before measuring, so every round scans the same sorted runs.
	settle bool
	// warmScan reads the whole preloaded database once during setup so the
	// working set is cached before measuring.
	warmScan bool
}

// mib is the number of 1 KiB-valued records that make about that many
// MiB of user data (23-byte key + 1024-byte value).
func mib(n int64) int64 { return n << 20 / (23 + 1024) }

var workloads = []workload{
	{
		// YCSB Load A: the barrier workload. Set-up seeds the database with
		// 16 MiB (four memtables), so setup_s times real work rather than
		// a millisecond open dominated by fsync jitter; the measured phase
		// then inserts over ten times that per round.
		name: "fill", mix: ycsb.LoadA, records: mib(16), valueSize: 1024,
	},
	{
		// YCSB A on ~250 MiB, about 30x the 8 MiB default block cache.
		name: "read-update", mix: ycsb.WorkloadA, records: mib(250), valueSize: 1024,
	},
	{
		// YCSB E on ~100 MiB with a 256 MiB block cache, warmed in setup.
		name: "scan-cached", mix: ycsb.WorkloadE, records: mib(100), valueSize: 1024,
		blockCache: 256 << 20, settle: true, warmScan: true,
	},
	{
		// YCSB A with uniform 1 B-4 KiB values, separated at 1 KiB.
		name: "large-value", mix: ycsb.WorkloadA, records: mib(120) / 2, valueSize: 4096,
		sizeDist: ycsb.UniformSize, valueThreshold: 1024,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options returns the engine options of w: ProfileBoLT on its defaults,
// SyncWrites off, plus w's cache and separation settings.
func (w workload) options(listener func(bolt.Event)) *bolt.Options {
	return &bolt.Options{
		Profile:         bolt.ProfileBoLT,
		BlockCacheBytes: w.blockCache,
		ValueThreshold:  w.valueThreshold,
		EventListener:   listener,
	}
}

// generator returns client c's operation stream for the measured phase.
// Clients insert into disjoint index ranges above the preloaded records.
func (w workload) generator(seed int64, c int, records int64) *ycsb.Generator {
	return ycsb.NewGenerator(ycsb.GeneratorConfig{
		Workload:      w.mix,
		Distribution:  ycsb.Zipfian,
		RecordCount:   records,
		InsertStart:   records + int64(c)<<40,
		ValueSize:     w.valueSize,
		ValueSizeDist: w.sizeDist,
		Seed:          seed*7919 + int64(c) + 1,
	})
}

const (
	preloadWriters = 2
	preloadBatch   = 64
)

// setup opens a fresh database in dir and preloads, drains and warms it.
// The returned model holds every preloaded record.
func setup(w workload, dir string, seed int64, records int64, listener func(bolt.Event)) (*bolt.DB, *model, time.Duration, error) {
	start := time.Now()
	db, err := bolt.Open(dir, w.options(listener))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("open: %w", err)
	}
	m := newModel(int(records))
	fail := func(err error) (*bolt.DB, *model, time.Duration, error) {
		return nil, nil, 0, errors.Join(err, db.Close())
	}
	if err := preload(db, m, w, seed, records); err != nil {
		return fail(err)
	}
	if err := db.WaitIdle(); err != nil {
		return fail(fmt.Errorf("drain after preload: %w", err))
	}
	if w.settle {
		if err := db.CompactRange(nil, nil); err != nil {
			return fail(fmt.Errorf("settle: %w", err))
		}
	}
	if w.warmScan {
		if err := warm(db, m); err != nil {
			return fail(err)
		}
	}
	return db, m, time.Since(start), nil
}

// preload inserts records Load A records in batches from preloadWriters
// goroutines, each drawing its share from its own generator.
func preload(db *bolt.DB, m *model, w workload, seed int64, records int64) error {
	type rec struct {
		key     []byte
		version uint64
		n       int
	}
	per := (records + preloadWriters - 1) / preloadWriters
	done := make([][]rec, preloadWriters)
	errs := make([]error, preloadWriters)
	var wg sync.WaitGroup
	for p := 0; p < preloadWriters; p++ {
		lo, hi := int64(p)*per, min(int64(p+1)*per, records)
		wg.Add(1)
		go func(p int, lo, hi int64) {
			defer wg.Done()
			g := ycsb.NewGenerator(ycsb.GeneratorConfig{
				Workload:      ycsb.LoadA,
				InsertStart:   lo,
				ValueSize:     w.valueSize,
				ValueSizeDist: w.sizeDist,
				Seed:          seed*104729 + int64(p),
			})
			recs := make([]rec, 0, hi-lo)
			b := bolt.NewBatch()
			var buf []byte
			for i := lo; i < hi; i++ {
				op := g.Next()
				v := m.version.Add(1)
				buf = encodeValue(buf, op.Key, op.Value, v)
				b.Put(op.Key, buf)
				recs = append(recs, rec{op.Key, v, len(buf)})
				if b.Len() == preloadBatch || i == hi-1 {
					if err := db.Apply(b); err != nil {
						errs[p] = fmt.Errorf("preload: %w", err)
						return
					}
					b = bolt.NewBatch()
				}
			}
			done[p] = recs
		}(p, lo, hi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, recs := range done {
		for _, r := range recs {
			m.preloaded(r.key, r.version, r.n)
		}
	}
	m.sealPreload()
	return nil
}

// warm iterates the whole database once, checking every entry, so the
// block cache holds the working set.
func warm(db *bolt.DB, m *model) error {
	it := db.NewIterator(nil)
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if _, err := decodeValue(it.Key(), it.Value()); err != nil {
			return errors.Join(fmt.Errorf("warm-up scan: %w", err), it.Close())
		}
		n++
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		return fmt.Errorf("warm-up scan: %w", err)
	}
	if n != len(m.sorted) {
		return fmt.Errorf("warm-up scan saw %d keys, preloaded %d", n, len(m.sorted))
	}
	return nil
}

// allocatedBytes sums the blocks allocated to the files of dir, so a
// punched hole counts as freed.
func allocatedBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += blocksOf(info)
	}
	return total, nil
}
