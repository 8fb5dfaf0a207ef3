package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestRaceStressCompactionSnapshots is the -race workhorse (CI runs this
// package with -race): writers churn a small keyspace while a goroutine
// forces whole-range compactions and another takes and releases snapshots,
// reading through them. A tiny memtable keeps flushes, WAL rotations, and
// MANIFEST commits constantly in flight so the race detector sees the
// mu/manifestMu handoffs, the lock-free memtable inserts, and the zombie
// reclaim path all interleaved.
func TestRaceStressCompactionSnapshots(t *testing.T) {
	cfg := boltTestConfig()
	cfg.MemTableBytes = 8 << 10
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()

	const (
		writers = 4
		perG    = 1200
		keys    = 400
	)
	var writersWG, auxWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perG; i++ {
				key := []byte(fmt.Sprintf("race%06d", rng.Intn(keys)))
				switch rng.Intn(10) {
				case 0:
					if err := db.Delete(key); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := db.Put(key, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	// Forced compactions race the background flush/compaction scheduler.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.CompactRange(nil, nil); err != nil {
				t.Errorf("CompactRange: %v", err)
				return
			}
		}
	}()

	// Snapshot churn: grab a snapshot, read through it, release it — the
	// pin list and visibleSeq are shared with the commit pipeline.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		rng := rand.New(rand.NewSource(999))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.NewSnapshot()
			for j := 0; j < 20; j++ {
				key := []byte(fmt.Sprintf("race%06d", rng.Intn(keys)))
				if _, err := db.Get(key, snap); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("snapshot Get: %v", err)
					snap.Release()
					return
				}
			}
			// An iterator on the snapshot outlives it: its own pin must keep
			// compaction from dropping any version it sees, so a Get at the
			// same sequence still agrees with it.
			it := db.NewIter(snap)
			snap.Release()
			start := []byte(fmt.Sprintf("race%06d", rng.Intn(keys)))
			for ok, n := it.SeekGE(start), 0; ok && n < 10; ok, n = it.Next(), n+1 {
				if got, err := db.Get(it.Key(), snap); err != nil || !bytes.Equal(got, it.Value()) {
					t.Errorf("Get(%s) at a pinned sequence = %q, %v; iterator saw %q", it.Key(), got, err, it.Value())
					break
				}
			}
			if err := it.Err(); err != nil {
				t.Errorf("iterator: %v", err)
			}
			_ = it.Close()
		}
	}()

	// Writers finishing ends the test; then stop the auxiliary goroutines.
	writersWG.Wait()
	close(stop)
	auxWG.Wait()

	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
