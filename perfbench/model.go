package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
)

// Every value the benchmark writes starts with a 16-byte header:
//
//	[0:4)   CRC-32C of value[4:]
//	[4:8)   CRC-32C of the key the value was written under
//	[8:16)  version, unique across the run
//
// so a read can tell a rotted value, a value of another key and a stale
// version apart. Values shorter than the header are padded to it.
const headerLen = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeValue copies payload into buf (growing it to at least headerLen
// bytes) and stamps the header for key and version.
func encodeValue(buf, key, payload []byte, version uint64) []byte {
	buf = append(buf[:0], payload...)
	for len(buf) < headerLen {
		buf = append(buf, 0)
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(key, castagnoli))
	binary.LittleEndian.PutUint64(buf[8:], version)
	binary.LittleEndian.PutUint32(buf[0:], crc32.Checksum(buf[4:], castagnoli))
	return buf
}

// decodeValue checks value's header against key and returns its version.
func decodeValue(key, value []byte) (uint64, error) {
	if len(value) < headerLen {
		return 0, fmt.Errorf("value of %q is %d bytes, shorter than the header", key, len(value))
	}
	if crc32.Checksum(value[4:], castagnoli) != binary.LittleEndian.Uint32(value[0:]) {
		return 0, fmt.Errorf("value of %q fails its checksum", key)
	}
	if crc32.Checksum(key, castagnoli) != binary.LittleEndian.Uint32(value[4:]) {
		return 0, fmt.Errorf("value read under %q was written under another key", key)
	}
	return binary.LittleEndian.Uint64(value[8:]), nil
}

// keyNum parses a YCSB key ("user" + 19 digits). The digits are fixed
// width, so key order is the numeric order of keyNum.
func keyNum(key []byte) uint64 {
	var n uint64
	for _, c := range key[4:] {
		n = n*10 + uint64(c-'0')
	}
	return n
}

// keyOf renders a key number back into its YCSB key.
func keyOf(dst []byte, n uint64) []byte {
	dst = append(dst[:0], "user0000000000000000000"...)
	for i := len(dst) - 1; n > 0; i-- {
		dst[i] = byte('0' + n%10)
		n /= 10
	}
	return dst
}

// slot is the model's record of one preloaded key: the latest
// acknowledged version and value length, and the ack sequence at which
// that version was acknowledged.
type slot struct {
	state   atomic.Uint64 // version<<16 | value length
	ackedAt atomic.Uint64
}

const lockStripes = 4096

// model is the benchmark's per-key record of what the database must hold.
// Writes to one key are serialized by a striped lock, so per key the
// version order is the commit order and a read may return the latest
// acknowledged version or a newer one still in flight.
type model struct {
	index  map[uint64]int32 // preloaded key number -> slot; read-only after setup
	sorted []uint64         // preloaded key numbers, ascending
	slots  []slot
	locks  [lockStripes]sync.Mutex

	version   atomic.Uint64 // last version handed out
	acks      atomic.Uint64 // acknowledged writes, the ack sequence
	liveBytes atomic.Int64  // live key+value bytes
	putFailed atomic.Bool   // a Put returned an error, so it may or may not be applied

	inserted map[uint64]uint64 // inserted key number -> version; set by settle after drain
}

func newModel(records int) *model {
	return &model{
		index:  make(map[uint64]int32, records),
		sorted: make([]uint64, 0, records),
		slots:  make([]slot, records),
	}
}

// preloaded records a setup write of key with a value of n bytes.
func (m *model) preloaded(key []byte, version uint64, n int) {
	k := keyNum(key)
	i := int32(len(m.sorted))
	m.index[k] = i
	m.sorted = append(m.sorted, k)
	m.slots[i].state.Store(version<<16 | uint64(n))
	m.liveBytes.Add(int64(len(key) + n))
}

// sealPreload sorts the preloaded key list once setup is done.
func (m *model) sealPreload() {
	sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i] < m.sorted[j] })
}

func (m *model) lock(k uint64) *sync.Mutex { return &m.locks[k%lockStripes] }

// ackUpdate records an acknowledged overwrite of a preloaded key; the
// caller holds the key's stripe lock.
func (m *model) ackUpdate(s *slot, version uint64, n int) {
	old := int64(s.state.Load() & 0xffff)
	s.state.Store(version<<16 | uint64(n))
	s.ackedAt.Store(m.acks.Add(1))
	m.liveBytes.Add(int64(n) - old)
}

// ackInsert records an acknowledged insert of a fresh key; the client
// keeps the key itself.
func (m *model) ackInsert(keyLen, n int) {
	m.acks.Add(1)
	m.liveBytes.Add(int64(keyLen + n))
}

// checkRead validates value returned for key by a read that began after
// the model showed version floor for it. With exact set, the read must
// return floor itself.
func (m *model) checkRead(key, value []byte, floor uint64, exact bool) error {
	v, err := decodeValue(key, value)
	if err != nil {
		return err
	}
	if v < floor {
		return fmt.Errorf("read of %q returned version %d, older than acknowledged version %d", key, v, floor)
	}
	if exact && v != floor {
		return fmt.Errorf("read of %q after drain returned version %d, want exactly %d", key, v, floor)
	}
	if top := m.version.Load(); v > top {
		return fmt.Errorf("read of %q returned version %d, never written (last issued %d)", key, v, top)
	}
	return nil
}

// floor returns the version a read of key starting now must not go
// below, and whether key is a preloaded key.
func (m *model) floor(key []byte) (uint64, bool) {
	i, ok := m.index[keyNum(key)]
	if !ok {
		return 0, false
	}
	return m.slots[i].state.Load() >> 16, true
}

// scanFloor is floor for an entry met by a scan that began at ack
// sequence start: an ack that happened after the scan began sets no floor.
// It takes the key's stripe lock so version and ack sequence are read as
// one.
func (m *model) scanFloor(key []byte, start uint64) uint64 {
	i, ok := m.index[keyNum(key)]
	if !ok {
		return 0
	}
	s := &m.slots[i]
	mu := m.lock(keyNum(key))
	mu.Lock()
	defer mu.Unlock()
	if s.ackedAt.Load() > start {
		return 0
	}
	return s.state.Load() >> 16
}

// settle records the versions the clients' inserts were acknowledged
// with, once the database is drained, for latest to look up.
func (m *model) settle(keys, versions [][]uint64) {
	n := 0
	for _, l := range keys {
		n += len(l)
	}
	m.inserted = make(map[uint64]uint64, n)
	for c, l := range keys {
		for i, k := range l {
			m.inserted[k] = versions[c][i]
		}
	}
}

// latest returns the version a read of key from the drained database must
// return, and whether it must be exactly that one. It is not exact once a
// Put failed, since the failed write may have been applied; the version
// is then a floor.
func (m *model) latest(key []byte) (version uint64, exact bool) {
	k := keyNum(key)
	if i, ok := m.index[k]; ok {
		version = m.slots[i].state.Load() >> 16
	} else {
		version = m.inserted[k]
	}
	return version, !m.putFailed.Load()
}

// liveKeys returns every live key number in ascending order: the
// preloaded keys merged with the ones the clients inserted.
func (m *model) liveKeys(inserted ...[]uint64) []uint64 {
	var ins []uint64
	for _, l := range inserted {
		ins = append(ins, l...)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	out := make([]uint64, 0, len(m.sorted)+len(ins))
	i, j := 0, 0
	for i < len(m.sorted) || j < len(ins) {
		if j == len(ins) || (i < len(m.sorted) && m.sorted[i] < ins[j]) {
			out = append(out, m.sorted[i])
			i++
		} else {
			out = append(out, ins[j])
			j++
		}
	}
	return out
}
