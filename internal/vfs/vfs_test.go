package vfs

import (
	"errors"
	"io"
	"testing"

	"github.com/bolt-lsm/bolt/internal/simdisk"
)

// backends returns one instance of every FS implementation for shared tests.
func backends(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{
		"mem": NewMem(),
		"sim": NewSim(simdisk.NewDevice(simdisk.AccountingProfile())),
		"os":  osfs,
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if sz, _ := f.Size(); sz != 11 {
				t.Fatalf("Size = %d, want 11", sz)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := fs.Open("a")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			buf := make([]byte, 5)
			if _, err := r.ReadAt(buf, 6); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("read %q, want world", buf)
			}
		})
	}
}

func TestReadAtEOF(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("a")
			f.Write([]byte("abc"))
			f.Close()
			r, _ := fs.Open("a")
			defer r.Close()
			buf := make([]byte, 10)
			n, err := r.ReadAt(buf, 1)
			if n != 2 || !errors.Is(err, io.EOF) {
				t.Fatalf("ReadAt = (%d, %v), want (2, EOF)", n, err)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open(missing) = %v, want ErrNotFound", err)
			}
			if _, err := fs.Stat("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Stat(missing) = %v, want ErrNotFound", err)
			}
			if err := fs.Remove("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Remove(missing) = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestRenameReplaces(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			mustWrite(t, fs, "a", "AAA")
			mustWrite(t, fs, "b", "BBB")
			if err := fs.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			data, err := ReadWholeFile(fs, "b")
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "AAA" {
				t.Fatalf("b = %q, want AAA", data)
			}
			if _, err := fs.Open("a"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("a should be gone, got %v", err)
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			mustWrite(t, fs, "x", "1")
			mustWrite(t, fs, "y", "2")
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, n := range names {
				got[n] = true
			}
			if !got["x"] || !got["y"] || len(names) != 2 {
				t.Fatalf("List = %v", names)
			}
		})
	}
}

func TestPunchHoleReadsZero(t *testing.T) {
	for name, fs := range backends(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("h")
			f.Write([]byte("0123456789"))
			if err := f.PunchHole(2, 5); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 10)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			want := "01\x00\x00\x00\x00\x007 89"
			_ = want
			if string(buf[:2]) != "01" || string(buf[7:]) != "789" {
				t.Fatalf("hole edges damaged: %q", buf)
			}
			for i := 2; i < 7; i++ {
				if buf[i] != 0 {
					t.Fatalf("byte %d not zero: %q", i, buf)
				}
			}
			if sz, _ := f.Size(); sz != 10 {
				t.Fatalf("size changed by hole punch: %d", sz)
			}
			f.Close()
		})
	}
}

func mustWrite(t *testing.T, fs FS, name, data string) {
	t.Helper()
	if err := WriteFile(fs, name, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

func TestMemAllocatedBytes(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("a")
	f.Write(make([]byte, 1000))
	if got := fs.AllocatedBytes(); got != 1000 {
		t.Fatalf("AllocatedBytes = %d, want 1000", got)
	}
	f.PunchHole(0, 400)
	if got := fs.AllocatedBytes(); got != 600 {
		t.Fatalf("AllocatedBytes after punch = %d, want 600", got)
	}
	f.Close()
	fs.Remove("a")
	if got := fs.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes after remove = %d, want 0", got)
	}
}

func TestCrashLosesUnsyncedData(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("a")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte(" volatile"))
	fs.SyncDir()

	clone := fs.CrashClone()
	data, err := ReadWholeFile(clone, "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("crash clone = %q, want only synced prefix", data)
	}
}

func TestCrashLosesUnsyncedDirEntries(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("never-synced")
	f.Write([]byte("x"))
	// Created but never synced: both content and directory entry are
	// volatile, so the file vanishes in a crash.
	clone := fs.CrashClone()
	if _, err := clone.Open("never-synced"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unsynced file survived crash: %v", err)
	}
}

func TestSyncMakesDirEntryDurable(t *testing.T) {
	// Ordered-journal model: fsyncing a new file also commits its
	// directory entry (see memHandle.Sync).
	fs := NewMem()
	f, _ := fs.Create("synced")
	f.Write([]byte("x"))
	f.Sync()
	clone := fs.CrashClone()
	data, err := ReadWholeFile(clone, "synced")
	if err != nil || string(data) != "x" {
		t.Fatalf("synced file lost in crash: %q, %v", data, err)
	}
}

func TestCrashResurrectsUnsyncedRemoval(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("a")
	f.Write([]byte("zombie"))
	f.Sync()
	f.Close()
	fs.SyncDir()
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	// Removal not yet durable: after a crash the file reappears.
	clone := fs.CrashClone()
	data, err := ReadWholeFile(clone, "a")
	if err != nil {
		t.Fatalf("removed-but-not-durably file should reappear: %v", err)
	}
	if string(data) != "zombie" {
		t.Fatalf("resurrected contents = %q", data)
	}
	// After SyncDir the removal is durable.
	fs.SyncDir()
	clone2 := fs.CrashClone()
	if _, err := clone2.Open("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("durably removed file survived crash: %v", err)
	}
}

func TestCrashCloneIndependent(t *testing.T) {
	fs := NewMem()
	mustWrite(t, fs, "a", "one")
	fs.SyncDir()
	clone := fs.CrashClone()
	// Mutating the original must not affect the clone.
	f, _ := fs.Create("a")
	f.Write([]byte("two"))
	f.Sync()
	f.Close()
	data, _ := ReadWholeFile(clone, "a")
	if string(data) != "one" {
		t.Fatalf("clone mutated: %q", data)
	}
}

func TestSimChargesDevice(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.AccountingProfile())
	fs := NewSim(dev)
	f, _ := fs.Create("a")
	f.Write(make([]byte, 4096))
	f.Sync()
	f.Sync() // second sync has no dirty bytes but still a barrier
	buf := make([]byte, 1024)
	f.ReadAt(buf, 0)
	f.Close()

	s := dev.Stats()
	if s.Barriers != 2 {
		t.Errorf("Barriers = %d, want 2", s.Barriers)
	}
	if s.BytesFlushed != 4096 {
		t.Errorf("BytesFlushed = %d, want 4096", s.BytesFlushed)
	}
	if s.Reads != 1 || s.BytesRead != 1024 {
		t.Errorf("Reads = %d BytesRead = %d", s.Reads, s.BytesRead)
	}
}

func TestClosedHandleRejectsOps(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("a")
	f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after close = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close = %v", err)
	}
}

func TestOSReadOnlyHandleRejectsWrite(t *testing.T) {
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, osfs, "a", "data")
	r, err := osfs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Write on read-only handle = %v", err)
	}
}

// The engine reclaims dead table and value-log ranges through handles from
// Open, so those must punch (natively or by the zeroing fallback) and read
// the range back as zeros.
func TestOSOpenHandlePunchesHole(t *testing.T) {
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, osfs, "a", "0123456789")
	f, err := osfs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.PunchHole(2, 5); err != nil && !errors.Is(err, ErrPunchHoleUnsupported) {
		t.Fatalf("PunchHole through an Open handle = %v", err)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if want := "01\x00\x00\x00\x00\x00789"; string(buf) != want {
		t.Fatalf("after punch read %q, want %q", buf, want)
	}
}
