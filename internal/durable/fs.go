// Package durable is the crash-consistency layer under the daemon's
// persistent state: atomic write-tmp-fsync-rename-fsync(dir) file
// replacement, and a seeded-backoff retry helper for transient I/O
// faults. Every file the daemon writes, corpus or memo, goes through
// the same two.
//
// Everything goes through the FS seam so the disk-fault harness
// (internal/chaos.FaultFS) can inject short writes, fsync errors, and
// crash-at-write-point faults under the exact production code path; the
// OS implementation is a thin veneer over package os.
package durable

import (
	"fmt"
	"io"
	"os"
)

// FS is the filesystem seam every durable-layer operation goes
// through. Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (os.Rename
	// semantics on POSIX: the commit point of every atomic write).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory, making a preceding Rename or Remove
	// in it durable.
	SyncDir(name string) error
}

// File is the open-file surface the durable layer needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage.
	Sync() error
}

// osFS is the production FS over package os.
type osFS struct{}

var theOSFS FS = osFS{}

// OS returns the production filesystem.
func OS() FS { return theOSFS }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return fmt.Errorf("durable: sync dir %s: %w", name, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("durable: sync dir %s: %w", name, serr)
	}
	if cerr != nil {
		return fmt.Errorf("durable: sync dir %s: %w", name, cerr)
	}
	return nil
}
