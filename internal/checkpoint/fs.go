package checkpoint

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"sync/atomic"
)

// File is the writable-handle surface the checkpoint envelope needs from the
// filesystem: sequential reads (replay), appends and staged writes, fsync,
// and tail truncation (the journal's torn-append self-heal). *os.File
// satisfies it.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem seam every durable write in this package routes
// through — Save, Load, the Journal, and (via them) the serve daemon's job
// journal, sweep snapshots and cache I/O. Production uses the process filesystem (osFS);
// tests and the internal/fault injector interpose a wrapper with SetFS to
// observe or fail individual operations without touching the os package.
type FS interface {
	// OpenFile, Open, ReadFile, Rename, Remove and Stat mirror the os
	// functions of the same names (Open is read-only).
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (iofs.FileInfo, error)
	// SyncDir fsyncs a directory, making previously renamed or created
	// entries inside it durable. Rename-based atomic publishes are not
	// crash-safe without it: the rename lives in the directory, and an
	// unsynced directory can lose the entry even though the file's own
	// bytes were fsynced.
	SyncDir(dir string) error
}

// Open modes of the two write disciplines in this package: staged atomic
// writes (Save, Journal.Rewrite) truncate their temp file, the journal's
// append path appends.
const (
	osWriteFlags  = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	osAppendFlags = os.O_WRONLY | os.O_CREATE | os.O_APPEND
)

// osFS is the production FS: thin delegation to the os package.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)          { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error)    { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                { return os.Remove(name) }
func (osFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: dir sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: dir sync: %w", err)
	}
	return nil
}

// OS returns the production (process) filesystem as an FS. Wrappers that
// interpose on real I/O (internal/fault) build on it.
func OS() FS { return osFS{} }

// overrideFS, when set, replaces the process filesystem for every durable
// operation in this package. The hot path pays one atomic load and a nil
// check (filesystem below); production never sets it.
var overrideFS atomic.Pointer[FS]

// SetFS installs fs as the package filesystem and returns a restore
// function. It exists for tests and fault injection (cmd/pdnserve's
// -fault-schedule flag) only — swapping the filesystem under live writers is
// safe (the pointer swap is atomic; in-flight handles keep their origin FS)
// but destroys the durability guarantees the injected FS chooses to break.
func SetFS(fs FS) (restore func()) {
	var prev *FS
	if fs == nil {
		prev = overrideFS.Swap(nil)
	} else {
		prev = overrideFS.Swap(&fs)
	}
	return func() { overrideFS.Store(prev) }
}

// filesystem resolves the active FS: the injected override if one is set,
// the process filesystem otherwise.
func filesystem() FS {
	if p := overrideFS.Load(); p != nil {
		return *p
	}
	return osFS{}
}

// SyncDir fsyncs dir through the active filesystem. Exported so callers
// outside this package that publish files by rename can apply the same
// rename-then-sync-parent discipline Save and Journal.Rewrite use (the
// durable analyzer's rename-without-dir-sync rule checks for it).
func SyncDir(dir string) error {
	return filesystem().SyncDir(dir)
}
