package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aid/internal/casestudy"
	"aid/internal/trace"
)

// collectSmall collects a small corpus from a built-in study for store
// tests.
func collectSmall(t *testing.T) *trace.LogSet {
	t.Helper()
	study := casestudy.ByName("npgsql")
	logs, _, err := casestudy.Collect(t.Context(), study, casestudy.CollectConfig{Successes: 5, Failures: 5, SeedCap: 20000})
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

func testStore(t *testing.T, s CorpusStore) {
	logs := collectSmall(t)

	if _, err := s.Get("acme", "missing"); !isNotFound(err) {
		t.Fatalf("Get missing: want NotFoundError, got %v", err)
	}
	if err := s.Put("acme", "run1", logs); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("acme", "run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(logs.Runs) {
		t.Fatalf("round trip lost executions: %d != %d", len(got.Runs), len(logs.Runs))
	}
	// Tenant isolation: the same name under another tenant is absent.
	if _, err := s.Get("globex", "run1"); !isNotFound(err) {
		t.Fatalf("cross-tenant Get: want NotFoundError, got %v", err)
	}
	infos, err := s.List("acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "run1" || infos[0].Executions != len(logs.Runs) {
		t.Fatalf("List: %+v", infos)
	}
	succ, fail := logs.Counts()
	if infos[0].Successes != succ || infos[0].Failures != fail {
		t.Fatalf("List counts: %+v want %d/%d", infos[0], succ, fail)
	}
	if infos[0].Bytes != got.Bytes() || infos[0].Bytes <= 0 {
		t.Fatalf("List bytes: %+v want %d", infos[0], got.Bytes())
	}
	if err := s.Delete("acme", "run1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("acme", "run1"); !isNotFound(err) {
		t.Fatalf("Get after Delete: want NotFoundError, got %v", err)
	}
	// Invalid names are rejected, not used as paths/keys.
	if err := s.Put("../evil", "x", logs); err == nil {
		t.Error("tenant path traversal accepted")
	}
	if err := s.Put("acme", "a/b", logs); err == nil {
		t.Error("corpus name with separator accepted")
	}
}

func isNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

// TestFileStoreCLIInterop: the file store's on-disk layout is the CLI's
// JSON-lines format — a file written by trace.WriteFile (what cmd/aid
// -save-traces uses) dropped into the data directory is served as a
// corpus, and a Put round-trips through a fresh store instance.
func TestFileStoreCLIInterop(t *testing.T) {
	root := t.TempDir()
	logs := collectSmall(t)

	// Drop a CLI-written file in; the store must pick it up.
	if err := os.MkdirAll(filepath.Join(root, "acme"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFile(filepath.Join(root, "acme", "dropped.jsonl"), logs); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("acme", "dropped")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(logs.Runs) {
		t.Fatalf("dropped file lost executions: %d != %d", len(got.Runs), len(logs.Runs))
	}

	// Put persists across store instances (i.e. daemon restarts).
	if err := s.Put("acme", "saved", logs); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("acme", "saved"); err != nil {
		t.Fatalf("Put did not persist: %v", err)
	}
}

// TestFileStoreEmptyCorpusFile: a corpus file holding no execution (a
// file of blank lines dropped into the data directory) is refused when
// it is read, naming the file, as an empty upload is refused at ingest;
// listing the tenant's corpora fails on it the same way.
func TestFileStoreEmptyCorpusFile(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "acme"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "acme", "c.jsonl")
	if err := os.WriteFile(path, []byte("\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Get("acme", "c")
	if err == nil || !strings.Contains(err.Error(), "contains no executions") || !strings.Contains(err.Error(), path) {
		t.Fatalf("Get of an empty corpus file: %v, want a diagnostic naming %s", err, path)
	}
	if infos, err := s.List("acme"); err == nil {
		t.Fatalf("List over an empty corpus file succeeded: %+v", infos)
	}
}

// TestDecodeCorpus covers ingest decoding, including the empty-body
// diagnostic.
func TestDecodeCorpus(t *testing.T) {
	logs := collectSmall(t)
	var buf bytes.Buffer
	if err := trace.EncodeLogs(&buf, logs); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCorpus("acme", "run1", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(logs.Runs) {
		t.Fatalf("decode lost executions")
	}
	if _, err := DecodeCorpus("acme", "empty", strings.NewReader("")); err == nil {
		t.Error("empty corpus accepted")
	}
}

// TestValidateName pins the name grammar.
func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "tenant-1", "A.B_c", strings.Repeat("x", 128)} {
		if err := ValidateName("tenant", ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "é", strings.Repeat("x", 129)} {
		if err := ValidateName("tenant", bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
