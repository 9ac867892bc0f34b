// Package failfs is the filesystem seam the durability layer is proven
// through. Everything that must survive a crash — the write-ahead log
// (internal/wal) and the daemon's handling of its directories —
// performs its I/O through the FS interface instead of the os package,
// so a test can substitute Faulty: a wrapper that kills the "process" at
// the N-th write/fsync/rename boundary, optionally committing a torn
// prefix of the final write, exactly like a power cut would. The
// crash-injection suite in cmd/vnfoptd iterates that kill point across
// every I/O boundary of a live workload and asserts recovery is
// bit-identical to an engine that never crashed.
//
// Only mutating operations count as crash points; reads fail after the
// crash (a dead process reads nothing) but never advance the op
// counter, so the set of kill points enumerates exactly the places a
// real crash can interleave with durable state.
package failfs

import (
	"io"
	"os"
)

// File is the subset of *os.File the durability layer writes through.
type File interface {
	io.Writer
	// Sync flushes the file's data (and metadata) to stable storage.
	Sync() error
	Close() error
	// Truncate cuts the file to size bytes; the write-ahead log uses it
	// to drop a torn tail record during recovery.
	Truncate(size int64) error
}

// FS is the operation set wal and the daemon need. OS is the real
// filesystem; Faulty wraps any FS with crash injection.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics. Opening with
	// os.O_CREATE counts as a mutating op on a Faulty FS.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a preceding create/rename/remove of
	// one of its entries is itself durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS over the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
