package failfs

import (
	"errors"
	"os"
	"sync"
)

// ErrCrashed is the error every operation returns once a Faulty FS has
// hit its kill point: from the caller's point of view the process died
// mid-syscall and nothing it does afterwards reaches the disk.
var ErrCrashed = errors.New("failfs: injected crash")

// Faulty wraps an FS with deterministic crash injection. Mutating
// operations (create-open, write, sync, truncate, rename, remove,
// mkdir, dir-sync) advance an op counter; when the counter reaches the
// armed kill point the operation fails with ErrCrashed — before having
// any effect, or, for a torn write, after committing only a prefix of
// the buffer — and every later operation (reads included) fails the
// same way. Recovery then reopens the directory through a fresh FS,
// exactly like a reboot.
//
// Run the workload once unarmed and read Ops() to learn how many kill
// points it exposes; then iterate CrashAt(1..n).
type Faulty struct {
	inner FS

	mu      sync.Mutex
	ops     int
	failAt  int  // 0 = disarmed
	torn    bool // commit a prefix of the crashing write
	crashed bool
}

// NewFaulty wraps inner (nil = OS) with crash injection, disarmed.
func NewFaulty(inner FS) *Faulty {
	if inner == nil {
		inner = OS
	}
	return &Faulty{inner: inner}
}

// CrashAt arms the FS to crash at the n-th mutating operation from now
// (1-based; n <= 0 disarms) and resets the op counter. When torn is set
// and the crashing operation is a write, a prefix of the buffer is
// committed first — the torn tail a power cut leaves behind.
func (f *Faulty) CrashAt(n int, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.failAt = n
	f.torn = torn
	f.crashed = false
}

// Ops reports how many mutating operations have been counted since the
// last CrashAt (or construction).
func (f *Faulty) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the kill point was reached.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step counts one mutating op. It reports (tear, err): err is
// ErrCrashed when this op is at or past the kill point; tear is set
// when this exact op is the kill point and torn mode is on — the caller
// may then commit a prefix before failing.
func (f *Faulty) step() (tear bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.ops++
	if f.failAt > 0 && f.ops >= f.failAt {
		f.crashed = true
		return f.torn, ErrCrashed
	}
	return false, nil
}

// read gates a non-mutating op: it fails after the crash but never
// advances the counter.
func (f *Faulty) read() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC|os.O_APPEND|os.O_WRONLY|os.O_RDWR) != 0 {
		if _, err := f.step(); err != nil {
			return nil, err
		}
	} else if err := f.read(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: f, inner: inner}, nil
}

func (f *Faulty) ReadFile(name string) ([]byte, error) {
	if err := f.read(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) {
	if err := f.read(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *Faulty) Stat(name string) (os.FileInfo, error) {
	if err := f.read(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Faulty) RemoveAll(path string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.RemoveAll(path)
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) SyncDir(dir string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultyFile gates every file operation on the parent FS, so a file
// opened before the crash dies with it.
type faultyFile struct {
	fs    *Faulty
	inner File
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	tear, err := ff.fs.step()
	if err != nil {
		if tear && len(p) > 1 {
			// The power cut caught this write mid-flight: a prefix made it
			// to the medium, the rest did not.
			n, _ := ff.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return ff.inner.Write(p)
}

func (ff *faultyFile) Sync() error {
	if _, err := ff.fs.step(); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultyFile) Truncate(size int64) error {
	if _, err := ff.fs.step(); err != nil {
		return err
	}
	return ff.inner.Truncate(size)
}

func (ff *faultyFile) Close() error {
	// Closing is not a durability point: it neither writes nor flushes.
	// A crashed FS still "closes" the handle so deferred cleanup in the
	// caller does not mask the injected error.
	return ff.inner.Close()
}
