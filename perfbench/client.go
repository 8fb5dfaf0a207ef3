package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// client is one closed-loop load generator: it sends its next operation
// only after the previous one returned. Failed operations are counted,
// not retried; a wrong result stops the run.
type client struct {
	db  *bolt.DB
	m   *model
	gen *ycsb.Generator
	tr  *spanLog // nil while untraced

	reads, writes, scans  samples
	inserted, insertedVer []uint64 // key numbers this client inserted, and their versions
	attempted, failed     int64
	firstErr              error // the first error an operation returned
	userBytes             int64 // key+value bytes of acknowledged writes
	lastAck               time.Time
	wrong                 error
	mustExist             bool // the database is drained: every key read must be found at its latest version

	val   []byte // encoded value of the current write
	arena []byte // copies of the current scan's keys and values
	ends  []int  // arena offsets: key end, value end, per entry
}

func newClient(db *bolt.DB, m *model, gen *ycsb.Generator) *client {
	return &client{db: db, m: m, gen: gen}
}

// run issues operations until the deadline passes or halt is set.
func (c *client) run(deadline time.Time, halt *atomic.Bool) {
	for !halt.Load() {
		op := c.gen.Next()
		end := c.do(op)
		if c.wrong != nil {
			halt.Store(true)
			return
		}
		if !end.Before(deadline) {
			return
		}
	}
}

// do issues one operation and returns when it completed.
func (c *client) do(op ycsb.Op) time.Time {
	c.attempted++
	switch op.Kind {
	case ycsb.OpRead:
		return c.get(op.Key)
	case ycsb.OpScan:
		return c.scan(op.Key, op.ScanLen)
	default:
		return c.put(op)
	}
}

func (c *client) put(op ycsb.Op) time.Time {
	k := keyNum(op.Key)
	i, preloaded := c.m.index[k]
	if preloaded {
		mu := c.m.lock(k)
		mu.Lock()
		defer mu.Unlock()
	}
	v := c.m.version.Add(1)
	c.val = encodeValue(c.val, op.Key, op.Value, v)
	span := c.tr.begin()
	start := time.Now()
	err := c.db.Put(op.Key, c.val)
	end := time.Now()
	c.tr.end(span, spanPut, start, end)
	if err != nil {
		c.fail(fmt.Errorf("put %q: %w", op.Key, err))
		c.m.putFailed.Store(true)
		return end
	}
	c.writes.add(end.Sub(start))
	c.userBytes += int64(len(op.Key) + len(c.val))
	c.lastAck = end
	if preloaded {
		c.m.ackUpdate(&c.m.slots[i], v, len(c.val))
	} else {
		c.m.ackInsert(len(op.Key), len(c.val))
		c.inserted = append(c.inserted, k)
		c.insertedVer = append(c.insertedVer, v)
	}
	return end
}

func (c *client) get(key []byte) time.Time {
	floor, preloaded := c.m.floor(key)
	exact := false
	if c.mustExist {
		floor, exact = c.m.latest(key)
	}
	span := c.tr.begin()
	start := time.Now()
	val, err := c.db.Get(key)
	end := time.Now()
	c.tr.end(span, spanGet, start, end)
	switch {
	case errors.Is(err, bolt.ErrNotFound) && (preloaded || c.mustExist):
		c.wrong = fmt.Errorf("get %q: not found, but the key was written", key)
	case err != nil:
		c.fail(fmt.Errorf("get %q: %w", key, err))
	default:
		c.reads.add(end.Sub(start))
		c.lastAck = end
		if cerr := c.m.checkRead(key, val, floor, exact); cerr != nil {
			c.wrong = fmt.Errorf("get: %w", cerr)
		}
	}
	return end
}

// scan times NewIterator, SeekGE, up to n entries and Close, copying each
// entry out as a caller would; the entries are checked afterwards.
func (c *client) scan(from []byte, n int) time.Time {
	ack := c.m.acks.Load()
	c.arena, c.ends = c.arena[:0], c.ends[:0]
	span := c.tr.begin()
	start := time.Now()
	it := c.db.NewIterator(nil)
	for ok := it.SeekGE(from); ok && len(c.ends) < 2*n; ok = it.Next() {
		c.arena = append(c.arena, it.Key()...)
		c.ends = append(c.ends, len(c.arena))
		c.arena = append(c.arena, it.Value()...)
		c.ends = append(c.ends, len(c.arena))
	}
	err := errors.Join(it.Err(), it.Close())
	end := time.Now()
	c.tr.end(span, spanScan, start, end)
	if err != nil {
		c.fail(fmt.Errorf("scan from %q: %w", from, err))
		return end
	}
	c.scans.add(end.Sub(start))
	c.lastAck = end
	if werr := c.checkScan(from, ack); werr != nil {
		c.wrong = fmt.Errorf("scan from %q: %w", from, werr)
	}
	return end
}

// fail counts an operation that returned an error, keeping the first.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// checkScan validates the entries in the arena: ascending keys from the
// start key on, each value intact and no older than the model allows.
func (c *client) checkScan(from []byte, ack uint64) error {
	prev, off := from, 0
	for e := 0; e < len(c.ends); e += 2 {
		key := c.arena[off:c.ends[e]]
		val := c.arena[c.ends[e]:c.ends[e+1]]
		off = c.ends[e+1]
		if cmp := bytes.Compare(key, prev); cmp < 0 || (cmp == 0 && e > 0) {
			return fmt.Errorf("key %q follows %q out of order", key, prev)
		}
		floor, exact := c.m.scanFloor(key, ack), false
		if c.mustExist {
			floor, exact = c.m.latest(key)
		}
		if err := c.m.checkRead(key, val, floor, exact); err != nil {
			return err
		}
		prev = key
	}
	return nil
}

// samples holds one operation class's latencies in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }
