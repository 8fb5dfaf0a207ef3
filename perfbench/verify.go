package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Sample sizes of the verify pass, which checks every round.
const (
	verifyGets  = 2000
	verifyScans = 500
)

// The probe pass then times each op class the measured phase lacks, on
// caches the verify pass warmed, for probeShare of the round's measured
// time in chunks of probeChunk ops, so a probe lasts as long on every
// workload however long its ops take.
const (
	probeShare = 0.1
	probeChunk = 500
)

// probe runs the verify pass's gets (scan false) or scans (scan true) on
// v until d has passed.
func probe(v *client, live []uint64, rng *rand.Rand, scan bool, d time.Duration) error {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		gets, scans := probeChunk, 0
		if scan {
			gets, scans = 0, probeChunk/10
		}
		if err := verify(v, live, rng, gets, scans); err != nil {
			return err
		}
	}
	return nil
}

// verify re-reads a sample of the quiesced database through v: gets
// point reads of live keys, and scans whose keys must be exactly the next
// live keys. live holds every live key number in ascending order. Nothing
// runs beside these reads, so one that returns an error has lost a
// written key and fails the check like a wrong value.
func verify(v *client, live []uint64, rng *rand.Rand, gets, scans int) error {
	if len(live) == 0 {
		return fmt.Errorf("verify: no live keys")
	}
	var key []byte
	for i := 0; i < gets; i++ {
		key = keyOf(key, live[rng.Intn(len(live))])
		v.attempted++
		failed := v.failed
		v.get(key)
		if v.wrong != nil {
			return fmt.Errorf("verify: %w", v.wrong)
		}
		if v.failed > failed {
			return fmt.Errorf("verify: %w", v.firstErr)
		}
	}
	for i := 0; i < scans; i++ {
		pos := rng.Intn(len(live))
		n := 1 + rng.Intn(100)
		key = keyOf(key, live[pos])
		v.attempted++
		failed := v.failed
		v.scan(key, n)
		if v.wrong != nil {
			return fmt.Errorf("verify: %w", v.wrong)
		}
		if v.failed > failed {
			return fmt.Errorf("verify: %w", v.firstErr)
		}
		want := min(n, len(live)-pos)
		if got := len(v.ends) / 2; got != want {
			return fmt.Errorf("verify: scan from %q returned %d entries, want %d", key, got, want)
		}
		off := 0
		for e := 0; e < len(v.ends); e += 2 {
			if got := keyNum(v.arena[off:v.ends[e]]); got != live[pos+e/2] {
				return fmt.Errorf("verify: scan from %q returned key %d at %d, want %d", key, got, e/2, live[pos+e/2])
			}
			off = v.ends[e+1]
		}
	}
	return nil
}
