// Package memtable implements the in-memory write buffer as a concurrent
// skiplist. Inserts use per-level compare-and-swap so multiple writers can
// insert simultaneously (HyperLevelDB's write-path parallelism relies on
// this); readers never take locks. Entries are internal keys, so multiple
// versions of one user key coexist, newest first.
package memtable

import (
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
)

const maxHeight = 12

type node struct {
	key   keys.InternalKey       //boltvet:guardedby none -- immutable once the node is linked into the list
	value []byte                 //boltvet:guardedby none -- immutable once the node is linked into the list
	next  []atomic.Pointer[node] //boltvet:guardedby none -- slice header immutable (len == node height); elements are atomic pointers
}

// MemTable is a concurrent skiplist of internal-key entries. Construct
// with New.
type MemTable struct {
	head    *node         //boltvet:guardedby none -- immutable after New; node links are atomic
	height  atomic.Int32  //boltvet:guardedby atomic
	size    atomic.Int64  //boltvet:guardedby atomic -- approximate bytes
	count   atomic.Int64  //boltvet:guardedby atomic
	rngSeed atomic.Uint64 //boltvet:guardedby atomic
}

// New returns an empty memtable.
func New() *MemTable {
	head := &node{next: make([]atomic.Pointer[node], maxHeight)}
	m := &MemTable{head: head}
	m.height.Store(1)
	m.rngSeed.Store(0x9e3779b97f4a7c15)
	return m
}

// ApproximateSize returns the approximate memory footprint in bytes.
func (m *MemTable) ApproximateSize() int64 { return m.size.Load() }

// Count returns the number of entries.
func (m *MemTable) Count() int64 { return m.count.Load() }

// Empty reports whether the memtable has no entries.
func (m *MemTable) Empty() bool { return m.count.Load() == 0 }

// randomHeight draws a height with P(h) = 4^-h, like LevelDB.
func (m *MemTable) randomHeight() int {
	// xorshift64* on a shared atomic seed; contention is acceptable since
	// inserts do far more work than this.
	for {
		seed := m.rngSeed.Load()
		next := seed
		next ^= next >> 12
		next ^= next << 25
		next ^= next >> 27
		if m.rngSeed.CompareAndSwap(seed, next) {
			rnd := next * 0x2545f4914f6cdd1d
			h := 1
			for h < maxHeight && rnd&3 == 0 {
				h++
				rnd >>= 2
			}
			return h
		}
	}
}

// findSplice fills prev/next with the nodes straddling key at every level.
func (m *MemTable) findSplice(key keys.InternalKey, prev, next *[maxHeight]*node) {
	p := m.head
	for level := maxHeight - 1; level >= 0; level-- {
		for {
			n := p.next[level].Load()
			if n == nil || keys.Compare(n.key, key) >= 0 {
				prev[level] = p
				next[level] = n
				break
			}
			p = n
		}
	}
}

// Add inserts an entry. Internal keys are unique (sequence numbers never
// repeat), so Add never overwrites.
func (m *MemTable) Add(seq keys.Seq, kind keys.Kind, ukey, value []byte) {
	ikey := keys.MakeInternalKey(make([]byte, 0, len(ukey)+keys.TrailerLen), ukey, seq, kind)
	var v []byte
	if len(value) > 0 {
		v = append([]byte(nil), value...)
	}
	h := m.randomHeight()
	n := &node{key: ikey, value: v, next: make([]atomic.Pointer[node], h)}

	for {
		cur := m.height.Load()
		if int32(h) <= cur || m.height.CompareAndSwap(cur, int32(h)) {
			break
		}
	}

	var prev, next [maxHeight]*node
	m.findSplice(ikey, &prev, &next)
	for level := 0; level < h; level++ {
		for {
			n.next[level].Store(next[level])
			if prev[level].next[level].CompareAndSwap(next[level], n) {
				break
			}
			// Lost a race at this level: recompute the splice from the
			// previous node forward.
			p := prev[level]
			for {
				nn := p.next[level].Load()
				if nn == nil || keys.Compare(nn.key, ikey) >= 0 {
					prev[level], next[level] = p, nn
					break
				}
				p = nn
			}
		}
	}
	m.size.Add(int64(len(ikey) + len(v) + 48))
	m.count.Add(1)
}

// Get looks up ukey at-or-below sequence seq. found=false means the
// memtable holds no visible version; found=true with kind=KindDelete means
// the key was deleted.
func (m *MemTable) Get(ukey []byte, seq keys.Seq) (value []byte, kind keys.Kind, found bool) {
	return m.GetSeek(keys.MakeInternalKey(nil, ukey, seq, keys.KindSeekMax))
}

// GetSeek is Get for callers that already hold an encoded seek key
// (user key + seq + KindSeekMax): the engine's read path probes the
// mutable and immutable memtables and every table with one target, and
// encoding it once per lookup instead of once per probe keeps the hot
// path allocation-free.
func (m *MemTable) GetSeek(target keys.InternalKey) (value []byte, kind keys.Kind, found bool) {
	n := m.seekGE(target)
	if n == nil || keys.CompareUser(n.key.UserKey(), target.UserKey()) != 0 {
		return nil, 0, false
	}
	return n.value, n.key.Kind(), true
}

// seekGE returns the first node with key >= target, or nil. It returns the
// node the level-0 search compared: re-loading p.next[0] could return a
// node a concurrent insert just placed below target.
func (m *MemTable) seekGE(target keys.InternalKey) *node {
	p := m.head
	var n *node
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		for {
			n = p.next[level].Load()
			if n == nil || keys.Compare(n.key, target) >= 0 {
				break
			}
			p = n
		}
	}
	return n
}

// NewIter returns an iterator over the memtable. The iterator observes
// entries inserted after its creation (standard LSM semantics; snapshot
// isolation comes from sequence-number filtering above).
func (m *MemTable) NewIter() iterator.Iterator {
	return &memIter{m: m}
}

type memIter struct {
	m *MemTable
	n *node
}

var _ iterator.Iterator = (*memIter)(nil)

func (it *memIter) First() bool {
	it.n = it.m.head.next[0].Load()
	return it.n != nil
}

func (it *memIter) Seek(target keys.InternalKey) bool {
	it.n = it.m.seekGE(target)
	return it.n != nil
}

func (it *memIter) Next() bool {
	if it.n == nil {
		return false
	}
	it.n = it.n.next[0].Load()
	return it.n != nil
}

func (it *memIter) Valid() bool { return it.n != nil }

func (it *memIter) Key() keys.InternalKey {
	if it.n == nil {
		return nil
	}
	return it.n.key
}

func (it *memIter) Value() []byte {
	if it.n == nil {
		return nil
	}
	return it.n.value
}

func (it *memIter) Err() error { return nil }

func (it *memIter) Close() error {
	it.n = nil
	return nil
}
