package durable_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aid/internal/chaos"
	"aid/internal/durable"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	write := func(content string) error {
		return durable.WriteFileAtomic(durable.OS(), path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := write("first"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("read back %q", got)
	}
	if err := write("second, longer than the first"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer than the first" {
		t.Fatalf("replace read back %q", got)
	}
	// A failing producer must leave the committed file untouched and no
	// tmp debris.
	err := durable.WriteFileAtomic(durable.OS(), path, func(w io.Writer) error {
		_, _ = io.WriteString(w, "half-written garbage")
		return errors.New("producer exploded")
	})
	if err == nil {
		t.Fatal("producer error should surface")
	}
	if got, _ := os.ReadFile(path); string(got) != "second, longer than the first" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("failed write left its tmp file behind")
	}
}

func TestRetry(t *testing.T) {
	calls := 0
	err := durable.Retry(4, 1, time.Microsecond, time.Millisecond, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient fault not ridden out: err=%v calls=%d", err, calls)
	}
	calls = 0
	sentinel := errors.New("permanent")
	if err := durable.Retry(3, 1, time.Microsecond, time.Millisecond, func() error {
		calls++
		return sentinel
	}); !errors.Is(err, sentinel) || calls != 3 {
		t.Fatalf("permanent fault: err=%v calls=%d, want %v after 3", err, calls, sentinel)
	}
}

// TestFaultFSSyncErrs: transient fsync faults surface as *FaultError
// and clear after the configured count — the fault Retry rides out.
func TestFaultFSSyncErrs(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.WrapFS(durable.OS(), chaos.FaultFSConfig{SyncErrs: 2})
	write := func() error {
		return durable.WriteFileAtomic(ffs, filepath.Join(dir, "f"), func(w io.Writer) error {
			_, err := io.WriteString(w, "payload")
			return err
		})
	}
	var ferr *chaos.FaultError
	if err := write(); !errors.As(err, &ferr) {
		t.Fatalf("first write: %v, want an injected *FaultError", err)
	}
	if err := durable.Retry(3, 7, time.Microsecond, time.Millisecond, write); err != nil {
		t.Fatalf("retry did not ride out transient fsync faults: %v", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "f")); string(got) != "payload" {
		t.Fatalf("read back %q", got)
	}
}
