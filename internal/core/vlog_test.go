package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// vlogTestConfig enables key-value separation at test scale: tiny
// segments so a handful of 1 KiB values forces rotation, and a low
// garbage ratio so GC triggers readily.
func vlogTestConfig() Config {
	c := testConfig()
	c.ValueThreshold = 256
	c.VLogSegmentBytes = 8 << 10
	c.VLogGCGarbageRatio = 0.3
	return c
}

func bigValue(key string, gen int) []byte {
	unit := fmt.Sprintf("%s/%d|", key, gen)
	return bytes.Repeat([]byte(unit), 1024/len(unit)+1)[:1024]
}

func countVLogFiles(t *testing.T, fs vfs.FS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if kind, _, ok := manifest.ParseFileName(name); ok && kind == manifest.KindValueLog {
			n++
		}
	}
	return n
}

func TestValueSeparationRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, fs, vlogTestConfig())
	defer db.Close()

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("big%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte(fmt.Sprintf("small%03d", i)), []byte(fmt.Sprintf("inline-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	m := db.Metrics().Snapshot()
	if m.VLogAppends != n {
		t.Fatalf("VLogAppends = %d, want %d (only the large values separate)", m.VLogAppends, n)
	}

	check := func(stage string) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("big%03d", i)
			got, err := db.Get([]byte(key), nil)
			if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v", stage, key, len(got), err)
			}
			sk := fmt.Sprintf("small%03d", i)
			got, err = db.Get([]byte(sk), nil)
			if err != nil || string(got) != fmt.Sprintf("inline-%d", i) {
				t.Fatalf("%s: Get(%s) = %q, %v", stage, sk, got, err)
			}
		}
	}
	check("memtable")

	// Through flush and full compaction the tree carries pointers; reads
	// must still transparently dereference.
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	check("compacted")

	if got := db.Metrics().Snapshot().VLogDerefs; got == 0 {
		t.Fatal("no VLogDerefs recorded for separated reads")
	}

	// Iterators dereference too.
	it := db.NewIter(nil)
	defer it.Close()
	seen := 0
	for ok := it.First(); ok; ok = it.Next() {
		if bytes.HasPrefix(it.Key(), []byte("big")) {
			if !bytes.Equal(it.Value(), bigValue(string(it.Key()), 0)) {
				t.Fatalf("iter %s: wrong value (%d bytes)", it.Key(), len(it.Value()))
			}
			seen++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("iterator saw %d big keys, want %d", seen, n)
	}

	// Delete and overwrite behave normally over pointers.
	if err := db.Delete([]byte("big000")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("big000"), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted separated key: %v", err)
	}
	if err := db.Put([]byte("big001"), []byte("now-small")); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("big001"), nil); err != nil || string(got) != "now-small" {
		t.Fatalf("overwrite to inline: %q, %v", got, err)
	}
}

func TestValueSeparationReopen(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	db := openTestDB(t, fs, cfg)
	const n = 30
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave some values WAL-only (no flush) and some in tables.
	if err := db.CompactRange([]byte("key000"), []byte("key014")); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+5; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openTestDB(t, fs, cfg)
	defer db.Close()
	for i := 0; i < n+5; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
			t.Fatalf("after reopen: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}

func TestValueGCReclaimsDeadSegments(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	// Keep background GC out of the way so the reclamation below is
	// attributable to the explicit CompactValueLog call, and scan in
	// sub-segment chunks so partial passes exercise ranged hole punches
	// (a fully collected segment is unlinked instead).
	cfg.VLogGCGarbageRatio = 1.0
	cfg.VLogGCChunkBytes = 2 << 10
	db := openTestDB(t, fs, cfg)
	defer db.Close()

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	segsBefore := countVLogFiles(t, fs)
	if segsBefore < 3 {
		t.Fatalf("test needs several segments, got %d", segsBefore)
	}

	// Overwrite everything: every old record is garbage, but the bytes
	// are only *accounted* once compaction drops the dead pointers.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	segsBeforeGC := countVLogFiles(t, fs)

	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics().Snapshot()
	if m.VLogGCPasses == 0 {
		t.Fatal("CompactValueLog ran no GC passes")
	}
	if m.VLogReclaimedBytes == 0 {
		t.Fatal("GC reclaimed no bytes despite fully dead segments")
	}
	if m.HolePunches == 0 {
		t.Fatal("partial GC passes punched no holes")
	}
	// Fully collected segments are unlinked outright: the population must
	// shrink by at least the dead generation-0 segments.
	if segsAfter := countVLogFiles(t, fs); segsAfter >= segsBeforeGC {
		t.Fatalf("segments: %d before GC, %d after — no dead segment removed", segsBeforeGC, segsAfter)
	}

	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 1)) {
			t.Fatalf("after GC: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// pinnedRead opens one kind of reader pin on db and returns how to read a
// key through it and how to drop it.
type pinnedRead func(db *DB) (read func(key string) ([]byte, error), release func())

func iterRead(it *DBIter) func(key string) ([]byte, error) {
	return func(key string) ([]byte, error) {
		if !it.SeekGE([]byte(key)) || string(it.Key()) != key {
			return nil, fmt.Errorf("iterator lost %s: %v", key, it.Err())
		}
		return it.Value(), nil
	}
}

func TestValueGCDefersPunchForSnapshot(t *testing.T) {
	kinds := []struct {
		name string
		pin  pinnedRead
	}{
		{"snapshot", func(db *DB) (func(string) ([]byte, error), func()) {
			snap := db.NewSnapshot()
			return func(key string) ([]byte, error) { return db.Get([]byte(key), snap) }, snap.Release
		}},
		{"iterator", func(db *DB) (func(string) ([]byte, error), func()) {
			it := db.NewIter(nil)
			return iterRead(it), func() { _ = it.Close() }
		}},
		// The iterator's own pin must outlive the snapshot it was opened on.
		{"iterator-on-released-snapshot", func(db *DB) (func(string) ([]byte, error), func()) {
			snap := db.NewSnapshot()
			it := db.NewIter(snap)
			snap.Release()
			return iterRead(it), func() { _ = it.Close() }
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) { testValueGCDefersPunch(t, kind.pin) })
	}
}

func testValueGCDefersPunch(t *testing.T, pin pinnedRead) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	db := openTestDB(t, fs, cfg)
	defer db.Close()

	const n = 24
	key := func(i int) string { return fmt.Sprintf("key%03d", i) }
	filler := func(i int) string { return fmt.Sprintf("fill%03d", i) }
	put := func(k string, gen int) {
		if err := db.Put([]byte(k), bigValue(k, gen)); err != nil {
			t.Fatal(err)
		}
	}
	// Generation-0 keys share their segments with fillers that die before
	// the pin is taken, so compaction accounts garbage against those
	// segments and GC picks them even though the pin keeps every key's
	// generation-0 pointer alive in the tree.
	for i := 0; i < n; i++ {
		put(key(i), 0)
		put(filler(i), 0)
	}
	for i := 0; i < n; i++ {
		put(filler(i), 1)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}

	read, release := pin(db)
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	for i := 0; i < n; i++ {
		put(key(i), 1)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	segsBeforeGC := countVLogFiles(t, fs)
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().VLogGCPasses.Load() == 0 {
		t.Fatal("GC collected nothing; the test needs segments with garbage")
	}

	// The pass collected the generation-0 segments, but their removal
	// waits for the pin: the pinned reader still resolves every record.
	if got := countVLogFiles(t, fs); got != segsBeforeGC {
		t.Fatalf("segments: %d before GC, %d after while pinned — reclamation ran early", segsBeforeGC, got)
	}
	for i := 0; i < n; i++ {
		got, err := read(key(i))
		if err != nil || !bytes.Equal(got, bigValue(key(i), 0)) {
			t.Fatalf("pinned read after GC: %s = %d bytes, %v", key(i), len(got), err)
		}
	}
	release()
	released = true
	if got := countVLogFiles(t, fs); got >= segsBeforeGC {
		t.Fatalf("segments: %d before GC, %d after the pin dropped — deferred reclamation never ran", segsBeforeGC, got)
	}

	// Post-release the latest values remain readable.
	for i := 0; i < n; i++ {
		got, err := db.Get([]byte(key(i)), nil)
		if err != nil || !bytes.Equal(got, bigValue(key(i), 1)) {
			t.Fatalf("latest read after release: Get(%s) = %d bytes, %v", key(i), len(got), err)
		}
	}
}

// A flush records the active segment at its synced length; once that
// segment rotates, its final length reaches the version only at the next
// flush. GC must leave the segment alone until then: a pass over the stale
// size would take it for fully scanned and unlink it, live tail and all.
func TestValueGCSkipsSegmentAwaitingFinalSize(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	db := openTestDB(t, fs, cfg)
	defer db.Close()

	want := make(map[string][]byte)
	put := func(k string, gen int) {
		if err := db.Put([]byte(k), bigValue(k, gen)); err != nil {
			t.Fatal(err)
		}
		want[k] = bigValue(k, gen)
	}
	activeSeg := func() uint64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.vlogNum
	}
	checkAll := func(stage string) {
		t.Helper()
		for k, v := range want {
			got, err := db.Get([]byte(k), nil)
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v", stage, k, len(got), err)
			}
		}
	}

	// An overwrite inside the active segment: the flush records the segment
	// at its synced length, and the compaction accounts the dead record as
	// garbage, making the segment a GC candidate once sealed.
	seg := activeSeg()
	put("a0", 0)
	put("a1", 0)
	put("a0", 1)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Fill the same segment past that length until it rotates; no flush
	// runs, so its final size waits in vlogPending.
	for i := 0; activeSeg() == seg; i++ {
		put(fmt.Sprintf("b%03d", i), 0)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	checkAll("GC before the sealing flush")

	// After the next flush records the final size, GC may collect it.
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().VLogGCPasses.Load() == 0 {
		t.Fatal("GC never collected the sealed segment after its size was recorded")
	}
	checkAll("GC after the sealing flush")
}

func TestRepairRebuildsVLogSegments(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	db := openTestDB(t, fs, cfg)
	const n = 20
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose the metadata; Repair must re-register the value-log segments
	// alongside the salvaged tables or every separated value dangles.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if kind, _, ok := manifest.ParseFileName(name); ok &&
			(kind == manifest.KindManifest || kind == manifest.KindCurrent) {
			if err := fs.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := Repair(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.VLogSegments == 0 {
		t.Fatal("repair registered no value-log segments")
	}

	db = openTestDB(t, fs, cfg)
	defer db.Close()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
			t.Fatalf("after repair: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}
