package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// ErrReadOnlyMode is the sentinel matched by errors.Is when the engine has
// degraded to read-only after background work exhausted its retry budget
// or hit a permanent storage fault. Reads keep serving the last committed
// state; writes and manual compactions fail with a ReadOnlyError wrapping
// this sentinel and the cause.
var ErrReadOnlyMode = errors.New("core: database is in read-only mode")

// ReadOnlyError is the typed error write paths return in read-only mode.
// errors.Is matches both ErrReadOnlyMode and the degradation cause.
type ReadOnlyError struct {
	// Cause is the background failure that forced the degradation.
	Cause error
}

// Error describes the degradation and its cause.
func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("core: database is in read-only mode: %v", e.Cause)
}

// Unwrap exposes both the sentinel and the cause chain.
func (e *ReadOnlyError) Unwrap() []error { return []error{ErrReadOnlyMode, e.Cause} }

// errIsTransient classifies a background failure. Faults that implement
// Transient() (the errorfs injection type, and any storage wrapper that
// models recoverable conditions) classify themselves; corruption is always
// fatal; anything else is assumed transient — the retry budget bounds the
// cost of guessing wrong, and a genuinely broken disk fails every retry
// and degrades anyway.
func errIsTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return !errors.Is(err, manifest.ErrCorrupt)
}

// enterReadOnlyLocked switches the engine into degraded read-only mode.
func (db *DB) enterReadOnlyLocked(cause error) {
	if db.readOnly {
		return
	}
	db.readOnly = true
	db.roCause = cause
	db.met.ReadOnlyDegradations.Add(1)
	db.cond.Broadcast()
}

// pendingErrLocked returns the error background work has pending for
// callers: a fatal engine error, or the read-only degradation.
func (db *DB) pendingErrLocked() error {
	if db.bgErr != nil {
		return db.bgErr
	}
	if db.readOnly {
		return &ReadOnlyError{Cause: db.roCause}
	}
	return nil
}

// bgStoppedLocked reports whether background work must stop: the DB is
// closed, poisoned by a fatal error, or degraded to read-only. Every wait
// loop that previously checked closed/bgErr must also exit on read-only,
// or it would spin or hang once flushes stop making progress.
func (db *DB) bgStoppedLocked() bool {
	return db.closed || db.bgErr != nil || db.readOnly
}

// retryOrDegradeLocked implements the background failure policy for one
// failed flush or compaction attempt: transient errors under the retry
// budget sleep a capped exponential backoff (mu released) and report true
// (retry); everything else degrades the engine to read-only and reports
// false. fails is the caller's consecutive-failure counter.
func (db *DB) retryOrDegradeLocked(fails *int, err error) bool {
	if db.closed || db.bgErr != nil {
		return false
	}
	if !errIsTransient(err) || *fails >= db.cfg.BgRetryLimit {
		db.enterReadOnlyLocked(err)
		db.mu.Unlock()
		db.ev.Emit(events.Event{Type: events.TypeBgDegraded, Err: err.Error()})
		db.mu.Lock()
		return false
	}
	*fails++
	db.met.BgRetries.Add(1)
	delay := backoffDelay(db.cfg.BgRetryBaseDelay, db.cfg.BgRetryMaxDelay, *fails)
	db.mu.Unlock()
	db.ev.Emit(events.Event{Type: events.TypeBgRetry, Dur: delay, Err: err.Error()})
	time.Sleep(delay)
	db.mu.Lock()
	return !db.bgStoppedLocked()
}

// recoverFaultLocked resets the consecutive-failure counter after a
// successful attempt, counting the recovery if any retries were spent.
func (db *DB) recoverFaultLocked(fails *int) {
	if *fails > 0 {
		*fails = 0
		db.met.BgRecoveredFaults.Add(1)
	}
}

// backoffDelay is capped exponential backoff with ±25% jitter: attempt 1
// sleeps ~base, doubling up to maxDelay. Jitter decorrelates the flush and
// compaction workers when both hit the same fault.
func backoffDelay(base, maxDelay time.Duration, attempt int) time.Duration {
	d := maxDelay
	if attempt < 32 {
		if shifted := base << (attempt - 1); shifted > 0 && shifted < maxDelay {
			d = shifted
		}
	}
	if q := int64(d) / 4; q > 0 {
		d += time.Duration(rand.Int63n(2*q+1) - q)
	}
	return d
}

// ReadOnly reports whether the engine has degraded to read-only mode, and
// if so the background failure that caused it.
func (db *DB) ReadOnly() (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.readOnly, db.roCause
}

// DeadRangeBytes returns the total bytes recorded as dead but unreclaimed
// across all table files and value-log segments (the space debt of
// punch-hole fallbacks).
func (db *DB) DeadRangeBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var total int64
	for _, n := range db.deadBytes {
		total += n
	}
	return total
}
