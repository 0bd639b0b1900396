package durable

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// WriteFileAtomic replaces path with the bytes produced by write,
// crash-consistently: the content goes to a temporary sibling first,
// is fsynced, renamed over path, and the parent directory is fsynced —
// so a reader (or a post-crash recovery) sees either the complete old
// file or the complete new one, never a torn mix. The temporary file
// is path + ".tmp", so callers must not write one path concurrently.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	err := func() error {
		f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		werr := func() error {
			bw := bufio.NewWriter(f)
			if err := write(bw); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Sync()
		}()
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		return cerr
	}()
	if err != nil {
		fsys.Remove(tmp) // best-effort: an orphan tmp is inert
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp) // best-effort
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	return nil
}

// Retry runs fn up to attempts times, sleeping between tries with the
// seeded-jitter exponential backoff the robustness layer uses for
// transient intervener errors (half-fixed, half-jittered, so retries
// never synchronize and the delay stream is reproducible per seed). It
// returns the last error when every attempt fails. Disk transients are
// short, so the delays are milliseconds and there is no context hook —
// total worst-case sleep is bounded by attempts*max.
func Retry(attempts int, seed int64, base, max time.Duration, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	backoff := base
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		time.Sleep(d)
		if backoff *= 2; backoff > max {
			backoff = max
		}
	}
	return err
}
