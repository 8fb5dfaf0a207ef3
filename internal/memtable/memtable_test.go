package memtable

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/bolt-lsm/bolt/internal/keys"
)

func TestAddGet(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("a"), []byte("v1"))
	m.Add(2, keys.KindSet, []byte("b"), []byte("v2"))
	m.Add(3, keys.KindDelete, []byte("a"), nil)

	v, kind, found := m.Get([]byte("b"), keys.MaxSeq)
	if !found || kind != keys.KindSet || string(v) != "v2" {
		t.Fatalf("Get(b) = %q %v %v", v, kind, found)
	}
	// At seq >= 3, "a" is deleted.
	_, kind, found = m.Get([]byte("a"), keys.MaxSeq)
	if !found || kind != keys.KindDelete {
		t.Fatalf("Get(a) should see tombstone, got kind=%v found=%v", kind, found)
	}
	// At seq 2, the original value is visible.
	v, kind, found = m.Get([]byte("a"), 2)
	if !found || kind != keys.KindSet || string(v) != "v1" {
		t.Fatalf("Get(a,2) = %q %v %v", v, kind, found)
	}
	// Unknown key.
	if _, _, found := m.Get([]byte("zz"), keys.MaxSeq); found {
		t.Fatal("phantom key")
	}
}

func TestIterSortedAndComplete(t *testing.T) {
	m := New()
	const n = 1000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for i, p := range perm {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key%05d", p)), []byte(fmt.Sprintf("v%d", p)))
	}
	if m.Count() != n {
		t.Fatalf("Count = %d", m.Count())
	}
	it := m.NewIter()
	defer it.Close()
	var prev keys.InternalKey
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("out of order at %d: %v >= %v", count, prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("iterated %d, want %d", count, n)
	}
}

func TestIterSeek(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("k%03d", i*2)), nil)
	}
	it := m.NewIter()
	defer it.Close()
	// Seek to a present key.
	if !it.Seek(keys.MakeInternalKey(nil, []byte("k010"), keys.MaxSeq, keys.KindSeekMax)) {
		t.Fatal("seek failed")
	}
	if string(it.Key().UserKey()) != "k010" {
		t.Fatalf("landed on %q", it.Key().UserKey())
	}
	// Seek between keys.
	if !it.Seek(keys.MakeInternalKey(nil, []byte("k011"), keys.MaxSeq, keys.KindSeekMax)) {
		t.Fatal("seek failed")
	}
	if string(it.Key().UserKey()) != "k012" {
		t.Fatalf("landed on %q", it.Key().UserKey())
	}
}

func TestMultipleVersionsNewestFirst(t *testing.T) {
	m := New()
	for seq := 1; seq <= 10; seq++ {
		m.Add(keys.Seq(seq), keys.KindSet, []byte("k"), []byte(fmt.Sprintf("v%d", seq)))
	}
	v, _, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || string(v) != "v10" {
		t.Fatalf("latest = %q", v)
	}
	for seq := 1; seq <= 10; seq++ {
		v, _, found := m.Get([]byte("k"), keys.Seq(seq))
		if !found || string(v) != fmt.Sprintf("v%d", seq) {
			t.Fatalf("at seq %d got %q", seq, v)
		}
	}
}

func TestConcurrentInsertersAllVisible(t *testing.T) {
	m := New()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := keys.Seq(w*perWriter + i + 1)
				key := fmt.Sprintf("w%d-k%06d", w, i)
				m.Add(seq, keys.KindSet, []byte(key), []byte(key))
			}
		}(w)
	}
	wg.Wait()
	if m.Count() != writers*perWriter {
		t.Fatalf("Count = %d, want %d", m.Count(), writers*perWriter)
	}
	// Every key must be found with its value.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 97 {
			key := fmt.Sprintf("w%d-k%06d", w, i)
			v, _, found := m.Get([]byte(key), keys.MaxSeq)
			if !found || string(v) != key {
				t.Fatalf("lost key %s (found=%v v=%q)", key, found, v)
			}
		}
	}
	// Iteration must be sorted and complete.
	it := m.NewIter()
	defer it.Close()
	count := 0
	var prev keys.InternalKey
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
			t.Fatal("concurrent inserts broke ordering")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != writers*perWriter {
		t.Fatalf("iterated %d, want %d", count, writers*perWriter)
	}
}

func TestConcurrentReadDuringWrite(t *testing.T) {
	m := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("k%06d", i)), []byte("v"))
		}
	}()
	// Readers run concurrently; they must never see corruption (panics or
	// unordered iteration).
	for {
		select {
		case <-done:
			return
		default:
		}
		it := m.NewIter()
		var prev keys.InternalKey
		for ok := it.First(); ok; ok = it.Next() {
			if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
				t.Fatal("reader observed unordered state")
			}
			prev = append(prev[:0], it.Key()...)
		}
		it.Close()
	}
}

// A lookup must answer from the node its level-0 search compared, not from
// a fresh load of the predecessor's link: an insert landing just below the
// probed key in between would otherwise hide the key, and the engine would
// fall through to an older version in a table. The writer inserts a rising
// run of keys that each sort directly below the probed key.
func TestGetSeekStableUnderInsertsJustBelow(t *testing.T) {
	m := New()
	probe := []byte("m")
	m.Add(1, keys.KindSet, probe, []byte("v"))
	target := keys.MakeInternalKey(nil, probe, keys.MaxSeq, keys.KindSeekMax)

	const inserts = 100000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < inserts; i++ {
			m.Add(keys.Seq(i+2), keys.KindSet, []byte(fmt.Sprintf("l%09d", i)), nil)
		}
	}()
	for misses := 0; ; {
		select {
		case <-done:
			if misses > 0 {
				t.Fatalf("GetSeek missed the probed key %d times during concurrent inserts", misses)
			}
			return
		default:
		}
		if _, _, found := m.GetSeek(target); !found {
			misses++
		}
	}
}

func TestApproximateSizeGrows(t *testing.T) {
	m := New()
	if m.ApproximateSize() != 0 {
		t.Fatal("empty memtable has nonzero size")
	}
	m.Add(1, keys.KindSet, []byte("key"), make([]byte, 1000))
	if m.ApproximateSize() < 1000 {
		t.Fatalf("size %d too small", m.ApproximateSize())
	}
}

// Property: memtable contents equal a sorted reference model.
func TestMatchesReferenceModel(t *testing.T) {
	f := func(ops [][2]string, seed int64) bool {
		m := New()
		type entry struct {
			ikey keys.InternalKey
			v    string
		}
		var ref []entry
		for i, op := range ops {
			seq := keys.Seq(i + 1)
			m.Add(seq, keys.KindSet, []byte(op[0]), []byte(op[1]))
			ref = append(ref, entry{keys.MakeInternalKey(nil, []byte(op[0]), seq, keys.KindSet), op[1]})
		}
		sort.Slice(ref, func(a, b int) bool { return keys.Compare(ref[a].ikey, ref[b].ikey) < 0 })
		it := m.NewIter()
		defer it.Close()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if i >= len(ref) || keys.Compare(it.Key(), ref[i].ikey) != 0 || string(it.Value()) != ref[i].v {
				return false
			}
			i++
		}
		return i == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	m := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key%09d", i)), []byte("value"))
	}
}

func BenchmarkGet(b *testing.B) {
	m := New()
	for i := 0; i < 100000; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("key%09d", i%100000)), keys.MaxSeq)
	}
}

func BenchmarkConcurrentAdd(b *testing.B) {
	m := New()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := seq.Add(1)
			m.Add(keys.Seq(s), keys.KindSet, []byte(fmt.Sprintf("key%09d", s%1000000)), []byte("value"))
		}
	})
}
