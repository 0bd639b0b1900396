package chaos

import (
	"fmt"
	"io"
	"os"
	"sync"

	"aid/internal/durable"
)

// FaultFSConfig configures the disk-fault injector. The zero value
// injects nothing — the wrapper is then observationally identical to
// the wrapped filesystem, the same contract as the intervener wrapper.
type FaultFSConfig struct {
	// CrashAtOp simulates the process dying at the k-th mutating
	// filesystem operation (1-based; 0 = never). The crashing operation
	// takes partial effect — a Write writes only half its bytes (a torn
	// write), metadata ops take no effect — and every operation after
	// it fails with *CrashError, modeling a dead process. A crash-matrix
	// test first counts a clean run's ops (CrashAtOp 0, Ops()), then
	// replays the workload once per k.
	CrashAtOp int
	// SyncErrs makes the first n fsync calls (File.Sync and SyncDir)
	// fail with a transient *FaultError without crashing — the fault a
	// bounded retry should cure.
	SyncErrs int
}

// CrashError is the terminal failure every operation returns once the
// simulated process has died.
type CrashError struct {
	// Op names the operation; N is the mutating-op index at the crash.
	Op string
	N  int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("chaos: simulated crash at mutating fs op %d (%s)", e.N, e.Op)
}

// FaultError is the transient, retryable fsync failure injected by
// SyncErrs.
type FaultError struct {
	// Op names the operation; N is the 1-based sync call index.
	Op string
	N  int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected transient %s error (sync call %d)", e.Op, e.N)
}

// FaultFS is the injectable VFS of the disk-fault harness: it wraps a
// durable.FS (normally durable.OS() over a temp dir) and injects
// deterministic faults per FaultFSConfig. Mutating operations — Write,
// Sync, Rename, Remove, MkdirAll, SyncDir — advance the op
// counter; reads don't, so a crash point k always lands on the same
// state-changing operation regardless of read interleaving.
type FaultFS struct {
	inner durable.FS
	cfg   FaultFSConfig

	mu      sync.Mutex
	ops     int
	syncs   int
	crashed bool
}

var _ durable.FS = (*FaultFS)(nil)

// WrapFS builds a fault-injecting filesystem over inner.
func WrapFS(inner durable.FS, cfg FaultFSConfig) *FaultFS {
	return &FaultFS{inner: inner, cfg: cfg}
}

// Ops returns the mutating operations seen so far; a clean run's total
// is the crash matrix's sweep bound.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the simulated crash point has been reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step gates one operation. mutating ops advance the counter; the op
// that reaches CrashAtOp returns (tear=true, *CrashError) so the caller
// can take partial effect; everything after a crash returns the error
// outright.
func (f *FaultFS) step(op string, mutating bool) (tear bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, &CrashError{Op: op, N: f.ops}
	}
	if !mutating {
		return false, nil
	}
	f.ops++
	if f.cfg.CrashAtOp > 0 && f.ops >= f.cfg.CrashAtOp {
		f.crashed = true
		return true, &CrashError{Op: op, N: f.ops}
	}
	return false, nil
}

// syncFault draws one transient-fsync fault (after the crash gate).
func (f *FaultFS) syncFault(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncs < f.cfg.SyncErrs {
		f.syncs++
		return &FaultError{Op: op, N: f.syncs}
	}
	return nil
}

// OpenFile implements durable.FS. Opening is read-shaped (the
// interesting crash points are the writes that follow), so it doesn't
// advance the op counter — but a crashed filesystem refuses it.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	if _, err := f.step("open", false); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: inner}, nil
}

// Rename implements durable.FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.step("rename", true); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements durable.FS.
func (f *FaultFS) Remove(name string) error {
	if _, err := f.step("remove", true); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// MkdirAll implements durable.FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.step("mkdir", true); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadDir implements durable.FS.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := f.step("readdir", false); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// SyncDir implements durable.FS.
func (f *FaultFS) SyncDir(name string) error {
	if _, err := f.step("syncdir", true); err != nil {
		return err
	}
	if err := f.syncFault("syncdir"); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// faultFile gates a file's operations through its FaultFS.
type faultFile struct {
	fs *FaultFS
	f  durable.File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if _, err := ff.fs.step("read", false); err != nil {
		return 0, err
	}
	return ff.f.Read(p)
}

// Write is where torn writes happen: the crashing op persists only the
// first half of its buffer — exactly the partial frame a real crash
// mid-write leaves — before failing.
func (ff *faultFile) Write(p []byte) (int, error) {
	tear, err := ff.fs.step("write", true)
	if err != nil {
		if tear {
			n, werr := ff.f.Write(p[:len(p)/2])
			_ = werr // the crash error wins; the torn bytes are the point
			return n, err
		}
		return 0, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Close() error {
	// Close is not a durability point (and a dead process's descriptors
	// close implicitly), so it passes through even after a crash.
	return ff.f.Close()
}

func (ff *faultFile) Sync() error {
	if _, err := ff.fs.step("sync", true); err != nil {
		return err
	}
	if err := ff.fs.syncFault("sync"); err != nil {
		return err
	}
	return ff.f.Sync()
}

// FlipBit flips one bit of the file at path in place — the harness's
// bit-rot fault. byteOffset counts from the start; bit is 0–7.
func FlipBit(fsys durable.FS, path string, byteOffset int64, bit uint8) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("chaos: flip bit: %w", err)
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("chaos: flip bit: %w", err)
	}
	if byteOffset < 0 || byteOffset >= int64(len(data)) {
		return fmt.Errorf("chaos: flip bit: offset %d out of range (file is %d bytes)", byteOffset, len(data))
	}
	data[byteOffset] ^= 1 << (bit % 8)
	// Without O_TRUNC the write lands over the old bytes from offset 0.
	f, err = fsys.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("chaos: flip bit: %w", err)
	}
	_, err = f.Write(data)
	cerr = f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("chaos: flip bit: %w", err)
	}
	return nil
}
