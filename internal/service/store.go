// Package service is the multi-tenant debugging daemon behind `aid
// serve`: a session manager that runs many concurrent discovery
// sessions against shared per-tenant trace corpora, an HTTP/JSON-lines
// API over it, and admission control so a heavy tenant cannot starve
// others.
//
// The layering mirrors the facade it serves: corpora live behind the
// pluggable CorpusStore interface (in-memory and JSON-lines-file
// backends ship; anything that can round-trip a corpus can back the
// daemon), sessions are aid.Pipeline runs with their Observer events
// captured for streaming, and per-tenant SharedSchedulers carry
// intervention outcomes across sessions debugging the same target.
package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"aid/internal/durable"
	"aid/internal/trace"
)

// CorpusInfo describes one stored trace corpus.
type CorpusInfo struct {
	// Tenant and Name identify the corpus; names are unique per tenant.
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	// Executions, Successes and Failures are the corpus counts.
	Executions int `json:"executions"`
	Successes  int `json:"successes"`
	Failures   int `json:"failures"`
	// Bytes is the resident size of the stored corpus in log form
	// (trace.LogSet.Bytes).
	Bytes int64 `json:"bytes"`
}

// CorpusStore is the pluggable storage behind the daemon's per-tenant
// corpora — the seam that decouples corpus persistence from the
// session engine, so corpora can live in memory, on disk, or behind a
// future remote backend without the manager changing.
//
// Corpora are held in log form (trace.LogSet), interned once when they
// are stored, so no session converts them again. Implementations must
// be safe for concurrent use. Get returns the corpus for shared
// read-only use: callers (pipeline stages) never mutate a collected
// corpus, so implementations may return a shared instance.
type CorpusStore interface {
	// Put stores (or replaces) a tenant's corpus under name.
	Put(tenant, name string, logs *trace.LogSet) error
	// Get returns the named corpus or a NotFoundError.
	Get(tenant, name string) (*trace.LogSet, error)
	// List returns the tenant's corpora sorted by name.
	List(tenant string) ([]CorpusInfo, error)
	// Delete removes the named corpus (a no-op when absent).
	Delete(tenant, name string) error
}

// NotFoundError reports a missing corpus (or, from the HTTP layer, a
// missing session). It maps to HTTP 404.
type NotFoundError struct {
	Tenant, Name string
	kind         string // "" = corpus
}

func (e *NotFoundError) Error() string {
	if e.kind != "" {
		return fmt.Sprintf("service: no %s %q", e.kind, e.Name)
	}
	return fmt.Sprintf("service: tenant %q has no corpus %q", e.Tenant, e.Name)
}

// ValidationError marks a client-input fault — a malformed name, spec,
// or corpus body. The HTTP layer maps it to 400; errors without a
// client-fault type are server faults and map to 500.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause (so e.g. an http.MaxBytesError inside a
// decode failure stays matchable).
func (e *ValidationError) Unwrap() error { return e.Err }

// validationf builds a ValidationError from a format string.
func validationf(format string, args ...any) error {
	return &ValidationError{Err: fmt.Errorf(format, args...)}
}

// ValidateName checks a tenant or corpus name for use as a store key
// (and, in the file store, a path element): non-empty, at most 128
// bytes, letters/digits/dot/dash/underscore only, not "." or "..".
func ValidateName(kind, name string) error {
	if name == "" || len(name) > 128 {
		return validationf("service: invalid %s name %q: must be 1-128 characters", kind, name)
	}
	if name == "." || name == ".." {
		return validationf("service: invalid %s name %q", kind, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return validationf("service: invalid %s name %q: only [A-Za-z0-9._-] allowed", kind, name)
		}
	}
	return nil
}

func corpusInfo(tenant, name string, logs *trace.LogSet) CorpusInfo {
	succ, fail := logs.Counts()
	return CorpusInfo{
		Tenant:     tenant,
		Name:       name,
		Executions: len(logs.Runs),
		Successes:  succ,
		Failures:   fail,
		Bytes:      logs.Bytes(),
	}
}

// ---- In-memory store ----

// MemStore is the in-memory CorpusStore: corpora live for the daemon's
// lifetime and are shared across sessions without copies.
type MemStore struct {
	mu      sync.RWMutex
	tenants map[string]map[string]*trace.LogSet
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{tenants: map[string]map[string]*trace.LogSet{}}
}

// Put implements CorpusStore.
func (s *MemStore) Put(tenant, name string, logs *trace.LogSet) error {
	if err := validateKey(tenant, name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[tenant]
	if t == nil {
		t = map[string]*trace.LogSet{}
		s.tenants[tenant] = t
	}
	t[name] = logs
	return nil
}

// Get implements CorpusStore.
func (s *MemStore) Get(tenant, name string) (*trace.LogSet, error) {
	if err := validateKey(tenant, name); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	logs := s.tenants[tenant][name]
	if logs == nil {
		return nil, &NotFoundError{Tenant: tenant, Name: name}
	}
	return logs, nil
}

// List implements CorpusStore.
func (s *MemStore) List(tenant string) ([]CorpusInfo, error) {
	if err := ValidateName("tenant", tenant); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []CorpusInfo
	for name, logs := range s.tenants[tenant] {
		out = append(out, corpusInfo(tenant, name, logs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Delete implements CorpusStore.
func (s *MemStore) Delete(tenant, name string) error {
	if err := validateKey(tenant, name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tenants[tenant], name)
	return nil
}

// ---- JSON-lines file store ----

// FileStore persists corpora as JSON-lines files under
// <root>/<tenant>/<name>.jsonl — the same on-disk format as
// aid.WriteTraces / cmd/aid -save-traces, so a corpus saved by the CLI
// can be dropped into a daemon's data directory (and vice versa) and
// the pipeline over either is byte-identical. Reads are cached: a file
// is decoded and interned once, and its log form is retained until the
// corpus is replaced or deleted, so repeated sessions over one corpus
// read the same logs.
//
// Writes are crash-consistent: each Put goes through the durable
// layer's write-tmp-fsync-rename-fsync(dir) discipline (with a bounded
// seeded-backoff retry for transient I/O faults), so a crash mid-ingest
// leaves either the complete old corpus or the complete new one — a
// torn file is never visible under the committed name.
type FileStore struct {
	root string
	fs   durable.FS

	mu    sync.Mutex
	cache map[string]*trace.LogSet // key: tenant + "/" + name
}

// writeRetries and writeRetrySeed bound the transient-I/O retry of a
// file write: three attempts with the seeded-jitter backoff
// (deterministic delays, worst case well under a second) — a disk that
// stays broken longer is not transient.
const (
	writeRetries   = 3
	writeRetrySeed = 1
)

// writeFile replaces the file at path with what write produces, the one
// way the daemon writes a file, corpus or memo: durable.WriteFileAtomic
// (write tmp, fsync, rename, fsync dir), retried on transient faults.
// WriteFileAtomic cleans up its tmp file per attempt, so retries start
// clean. Callers serialize writes to one path, which share its tmp name.
func writeFile(fsys durable.FS, path string, write func(io.Writer) error) error {
	return durable.Retry(writeRetries, writeRetrySeed, 0, 0, func() error {
		return durable.WriteFileAtomic(fsys, path, write)
	})
}

// NewFileStore opens (creating if needed) a file store rooted at dir
// over the real filesystem.
func NewFileStore(dir string) (*FileStore, error) {
	return NewFileStoreFS(dir, durable.OS())
}

// NewFileStoreFS is NewFileStore over an explicit filesystem — the
// disk-fault harness's hook.
func NewFileStoreFS(dir string, fsys durable.FS) (*FileStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: file store root: %w", err)
	}
	return &FileStore{root: dir, fs: fsys, cache: map[string]*trace.LogSet{}}, nil
}

func (s *FileStore) path(tenant, name string) string {
	return filepath.Join(s.root, tenant, name+".jsonl")
}

// Put implements CorpusStore.
func (s *FileStore) Put(tenant, name string, logs *trace.LogSet) error {
	if err := validateKey(tenant, name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.MkdirAll(filepath.Join(s.root, tenant), 0o755); err != nil {
		return fmt.Errorf("service: file store tenant dir: %w", err)
	}
	// Atomic replace, so a crashed Put never leaves a truncated corpus
	// where a complete one was expected — and the committed corpus
	// actually survives the crash. s.mu makes this the path's one
	// writer. The file holds the set the logs intern, which encodes
	// byte-identically to the set they were interned from.
	set := logs.Set()
	err := writeFile(s.fs, s.path(tenant, name), func(w io.Writer) error {
		return trace.Encode(w, set)
	})
	if err != nil {
		return fmt.Errorf("service: file store put %s/%s: %w", tenant, name, err)
	}
	s.cache[tenant+"/"+name] = logs
	return nil
}

// Get implements CorpusStore.
func (s *FileStore) Get(tenant, name string) (*trace.LogSet, error) {
	if err := validateKey(tenant, name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if logs := s.cache[tenant+"/"+name]; logs != nil {
		return logs, nil
	}
	path := s.path(tenant, name)
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, &NotFoundError{Tenant: tenant, Name: name}
		}
		return nil, fmt.Errorf("service: file store get: %w", err)
	}
	set, err := trace.DecodeNamed(f, path)
	cerr := f.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, fmt.Errorf("service: file store get: %w", cerr)
	}
	logs := trace.Intern(set)
	s.cache[tenant+"/"+name] = logs
	return logs, nil
}

// List implements CorpusStore.
func (s *FileStore) List(tenant string) ([]CorpusInfo, error) {
	if err := ValidateName("tenant", tenant); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(filepath.Join(s.root, tenant))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: file store list: %w", err)
	}
	var out []CorpusInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".jsonl")
		logs, err := s.Get(tenant, name)
		if err != nil {
			return nil, err
		}
		out = append(out, corpusInfo(tenant, name, logs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Delete implements CorpusStore.
func (s *FileStore) Delete(tenant, name string) error {
	if err := validateKey(tenant, name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cache, tenant+"/"+name)
	if err := s.fs.Remove(s.path(tenant, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: file store delete: %w", err)
	}
	return nil
}

// validateKey validates a (tenant, corpus) pair.
func validateKey(tenant, name string) error {
	if err := ValidateName("tenant", tenant); err != nil {
		return err
	}
	return ValidateName("corpus", name)
}

// DecodeCorpus decodes a JSON-lines corpus from r (the HTTP ingest
// body) and interns it into the log form the store keeps, rejecting
// empty corpora with a diagnostic naming the tenant and corpus rather
// than letting a later session fail obscurely. The decoded set is
// garbage once it is interned.
func DecodeCorpus(tenant, name string, r io.Reader) (*trace.LogSet, error) {
	set, err := trace.Decode(r)
	if err != nil {
		// The body is client input: decode failures are validation
		// errors (the chain keeps the cause, so an http.MaxBytesError
		// from a capped ingest body stays matchable for the 413 path).
		return nil, &ValidationError{Err: err}
	}
	if len(set.Executions) == 0 {
		return nil, validationf("service: corpus %s/%s contains no executions (empty or whitespace-only body)", tenant, name)
	}
	return trace.Intern(set), nil
}
