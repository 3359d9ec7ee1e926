package main

import (
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pdnsim/internal/checkpoint"
)

// memFS is the filesystem serve-mixed's daemons keep their state in. The
// daemon writes its journal, operator cache, sweep snapshots and manifest
// through checkpoint's filesystem seam, and the benchmark installs memFS
// there: the checkpoint code encodes, checksums, appends, stages and
// renames exactly as it would on disk, but the bytes stay in this process.
// On a 2-vCPU VM's shared virtual disk, serve-mixed wrote about 36 MB and
// discarded as much every 10 s even with its fsyncs skipped, and its bursts
// slowed from run to run: one seed's median burst went from 0.82 s to
// 1.64 s within two minutes, while the CPU-bound workloads held still.
// memFS keeps the disk out of the measurement. It counts what the daemon
// asked of the disk, so a change in how much it writes or how often it
// flushes still shows (checkpoint.journal_kb, checkpoint.state_kb,
// checkpoint.syncs_per_job).
//
// The daemon's few direct os calls (creating the state directory, removing
// a finished job's snapshot, reading a snapshot back after a crash) bypass
// the seam: the directory is created on disk and stays empty, and a
// finished job's snapshot stays in memory until its daemon is closed.
type memFS struct {
	mu      sync.Mutex
	files   map[string]*memData
	written map[string]int64 // bytes written, by the path they were written to
	syncs   int64            // file and directory fsyncs asked for
}

type memData struct{ b []byte }

var stateFS = &memFS{files: map[string]*memData{}, written: map[string]int64{}}

// installMemFS routes the checkpoint package through stateFS for the rest
// of the process.
func installMemFS() { checkpoint.SetFS(stateFS) }

func notExist(op, name string) error {
	return &iofs.PathError{Op: op, Path: name, Err: iofs.ErrNotExist}
}

func (m *memFS) OpenFile(name string, flag int, perm iofs.FileMode) (checkpoint.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		d = &memData{}
		m.files[name] = d
	}
	if flag&os.O_TRUNC != 0 {
		d.b = d.b[:0]
	}
	return &memFile{fs: m, name: name, d: d, append: flag&os.O_APPEND != 0}, nil
}

func (m *memFS) Open(name string) (checkpoint.File, error) {
	return m.OpenFile(name, os.O_RDONLY, 0)
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), d.b...), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[oldpath]
	if d == nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: iofs.ErrNotExist}
	}
	m.files[newpath] = d
	delete(m.files, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Stat(name string) (iofs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		return nil, notExist("stat", name)
	}
	return memInfo{name: filepath.Base(name), size: int64(len(d.b))}, nil
}

func (m *memFS) SyncDir(string) error {
	m.mu.Lock()
	m.syncs++
	m.mu.Unlock()
	return nil
}

// syncCount returns the fsyncs asked for so far.
func (m *memFS) syncCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// writtenUnder returns the bytes written so far under dir: to the journal
// (and its rewrites) and to every other file.
func (m *memFS) writtenUnder(dir string) (journal, other int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for path, n := range m.written {
		switch {
		case !strings.HasPrefix(path, dir+string(filepath.Separator)):
		case strings.HasPrefix(filepath.Base(path), journalFile):
			journal += n
		default:
			other += n
		}
	}
	return journal, other
}

// drop forgets every file under dir and what was written there.
func (m *memFS) drop(dir string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir + string(filepath.Separator)
	for path := range m.files {
		if strings.HasPrefix(path, prefix) {
			delete(m.files, path)
		}
	}
	for path := range m.written {
		if strings.HasPrefix(path, prefix) {
			delete(m.written, path)
		}
	}
}

// memFile is an open memFS file. Like a descriptor on disk, it keeps the
// data it was opened on after a rename or removal of its path.
type memFile struct {
	fs     *memFS
	name   string
	d      *memData
	off    int
	append bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= len(f.d.b) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.append {
		f.off = len(f.d.b)
	}
	if end := f.off + len(p); end > len(f.d.b) {
		f.d.b = append(f.d.b, make([]byte, end-len(f.d.b))...)
	}
	copy(f.d.b[f.off:], p)
	f.off += len(p)
	f.fs.written[f.name] += int64(len(p))
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if int(size) <= len(f.d.b) {
		f.d.b = f.d.b[:size]
	} else {
		f.d.b = append(f.d.b, make([]byte, int(size)-len(f.d.b))...)
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// memInfo is a memFS file's Stat.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string      { return i.name }
func (i memInfo) Size() int64       { return i.size }
func (memInfo) Mode() iofs.FileMode { return 0o644 }
func (memInfo) ModTime() time.Time  { return time.Time{} }
func (memInfo) IsDir() bool         { return false }
func (memInfo) Sys() any            { return nil }
