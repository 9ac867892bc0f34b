package failfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeFileAtomic is the textbook whole-file protocol the two tests
// below push through the seam — temp file in the same directory, fsync,
// rename, directory fsync — so that a crash at any instant leaves either
// the old file or the new one. Nothing in the tree persists whole files
// any more (every durable byte goes through internal/wal); the protocol
// stays here as the workload that proves Faulty counts, tears and kills
// the way a power cut would. A wal workload could not stand in for it:
// the log never renames, and the daemon's delete tombstone and state-file
// import lean on exactly the rename and dir-sync behaviour pinned here.
func writeFileAtomic(fsys FS, path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// Best-effort: the rename has already ordered data before name, and a
	// lost dir entry is equivalent to crashing a moment earlier.
	_ = fsys.SyncDir(filepath.Dir(path))
	return nil
}

// TestWriteFileAtomicRoundTrip: the happy path writes the bytes and
// leaves no temp file behind.
func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for i, payload := range []string{"first", "second, longer payload"} {
		if err := writeFileAtomic(OS, path, []byte(payload), 0o644); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != payload {
			t.Fatalf("write %d: read %q, want %q", i, got, payload)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileAtomicCrashEveryPoint iterates the kill point across
// every mutating op of an atomic overwrite and asserts old-or-new: the
// final file always reads back as either the previous payload or the
// full new one, never a torn mix — even when the crashing write commits
// a torn prefix of the temp file.
func TestWriteFileAtomicCrashEveryPoint(t *testing.T) {
	for _, torn := range []bool{false, true} {
		probe := NewFaulty(OS)
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		old, new_ := []byte("old-payload-old-payload"), []byte("NEW-PAYLOAD-NEW-PAYLOAD-NEW")
		if err := writeFileAtomic(OS, path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeFileAtomic(probe, path, new_, 0o644); err != nil {
			t.Fatal(err)
		}
		total := probe.Ops()
		if total < 4 { // create-open, write, sync, rename at minimum
			t.Fatalf("suspiciously few ops: %d", total)
		}

		for k := 1; k <= total; k++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			if err := writeFileAtomic(OS, path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := NewFaulty(OS)
			ffs.CrashAt(k, torn)
			err := writeFileAtomic(ffs, path, new_, 0o644)
			if err == nil {
				// Only the advisory dir-sync may crash without failing the
				// call; the rename must then already have happened.
				if !ffs.Crashed() {
					t.Fatalf("torn=%v k=%d: crash point not reached", torn, k)
				}
				got, rerr := os.ReadFile(path)
				if rerr != nil || string(got) != string(new_) {
					t.Fatalf("torn=%v k=%d: nil error but file %q, %v", torn, k, got, rerr)
				}
				continue
			}
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("torn=%v k=%d: err = %v, want ErrCrashed", torn, k, err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("torn=%v k=%d: final file unreadable: %v", torn, k, rerr)
			}
			if string(got) != string(old) && string(got) != string(new_) {
				t.Fatalf("torn=%v k=%d: torn file %q", torn, k, got)
			}
		}
	}
}

// TestFaultyDeadAfterCrash: once the kill point is hit, everything —
// including reads and previously opened files — fails with ErrCrashed.
func TestFaultyDeadAfterCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaulty(OS)
	f, err := ffs.OpenFile(filepath.Join(dir, "a"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ffs.CrashAt(1, false) // the write below is the kill point
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	if _, err := ffs.ReadFile(filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v", err)
	}
	if _, err := ffs.ReadDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("readdir after crash: %v", err)
	}
	if err := ffs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() = false after the kill point")
	}
}

// TestFaultyTornWriteCommitsPrefix: the crashing write in torn mode
// leaves a strict prefix of the buffer on disk.
func TestFaultyTornWriteCommitsPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	ffs := NewFaulty(OS)
	f, err := ffs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	ffs.CrashAt(1, true) // next mutating op (the write) crashes torn
	if _, err := f.Write(payload); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write: %v", err)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("torn write committed %d bytes of %d, want a strict prefix", len(got), len(payload))
	}
	if string(got) != string(payload[:len(got)]) {
		t.Fatalf("torn bytes %q are not a prefix of %q", got, payload)
	}
}
