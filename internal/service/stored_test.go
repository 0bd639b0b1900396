package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"aid"
	"aid/internal/oracle/tracejson"
	"aid/internal/trace"
)

// storedStudies are the six case studies whose 50+50 corpora the
// stored-corpus tests upload.
var storedStudies = []string{"npgsql", "kafka", "cosmosdb", "network", "buildandtest", "healthtelemetry"}

var storedCorpora struct {
	once   sync.Once
	bodies map[string][]byte
	err    error
}

// studyCorpora returns each study's 50+50 corpus as JSON lines, the
// bytes a client uploads, collected once per test binary.
func studyCorpora(t *testing.T) map[string][]byte {
	t.Helper()
	storedCorpora.once.Do(func() {
		bodies := map[string][]byte{}
		for _, name := range storedStudies {
			tr, err := aid.New().Collect(t.Context(), aid.FromStudy(aid.CaseStudyByName(name)))
			if err != nil {
				storedCorpora.err = err
				return
			}
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr.Set); err != nil {
				storedCorpora.err = err
				return
			}
			bodies[name] = buf.Bytes()
		}
		storedCorpora.bodies = bodies
	})
	if storedCorpora.err != nil {
		t.Fatal(storedCorpora.err)
	}
	return storedCorpora.bodies
}

// sessionReport runs one session over a stored corpus named after its
// study and returns the report's JSON.
func sessionReport(t *testing.T, m *Manager, tenant, study string) []byte {
	t.Helper()
	s, err := m.Start(tenant, SessionSpec{Study: study, Corpus: study})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	_, js, err := s.Report()
	if err != nil {
		t.Fatalf("%s: %v", study, err)
	}
	return js
}

// TestStoredCorpusReports: sessions over each study's corpus, uploaded
// into a MemStore and into a FileStore (served from the store's cache
// and, by a fresh store over the same directory, decoded from its
// file), give the report FromTraceFile(...).ForStudy(...) gives over
// the uploaded bytes; the file the FileStore writes is those bytes.
func TestStoredCorpusReports(t *testing.T) {
	if testing.Short() {
		t.Skip("six 50+50 studies are not short")
	}
	bodies := studyCorpora(t)
	dir := t.TempDir()
	files, err := NewFileStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewManager(Config{})
	defer mem.Close()
	onFile := NewManager(Config{Store: files})
	defer onFile.Close()
	for _, name := range storedStudies {
		body := bodies[name]
		path := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := aid.New(aid.WithBaseline(false)).Run(t.Context(), aid.FromTraceFile(path).ForStudy(aid.CaseStudyByName(name)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Manager{mem, onFile} {
			if _, err := m.Ingest("acme", name, bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		}
		stored, err := os.ReadFile(files.path("acme", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, body) {
			t.Errorf("%s: the FileStore's file differs from the uploaded corpus", name)
		}
		if got := sessionReport(t, mem, "acme", name); !bytes.Equal(got, want) {
			t.Errorf("%s: MemStore session report differs from the trace file's", name)
		}
		if got := sessionReport(t, onFile, "acme", name); !bytes.Equal(got, want) {
			t.Errorf("%s: FileStore session report differs from the trace file's", name)
		}
	}
	// A fresh store over the same directory decodes every corpus from
	// its file.
	reopened, err := NewFileStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: reopened})
	defer m.Close()
	for _, name := range storedStudies {
		want := sessionReport(t, mem, "acme", name)
		if got := sessionReport(t, m, "acme", name); !bytes.Equal(got, want) {
			t.Errorf("%s: report over a corpus decoded from its file differs", name)
		}
	}
}

// TestStoredCorpusFingerprint: a stored corpus fingerprints as the
// SHA-256 of the JSON lines encoding/json writes for the set its upload
// decodes to (the reflective codec kept as an oracle), so memos
// persisted over decoded sets still revive.
func TestStoredCorpusFingerprint(t *testing.T) {
	bodies := studyCorpora(t)
	files, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []CorpusStore{NewMemStore(), files} {
		m := NewManager(Config{Store: store})
		defer m.Close()
		for _, name := range storedStudies {
			set, err := tracejson.Decode(bytes.NewReader(bodies[name]))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := tracejson.Encode(h, set); err != nil {
				t.Fatal(err)
			}
			want := hex.EncodeToString(h.Sum(nil))
			if _, err := m.Ingest("acme", name, bytes.NewReader(bodies[name])); err != nil {
				t.Fatal(err)
			}
			got, err := m.corpusFingerprint("acme", name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%T %s: fingerprint %s, want %s", store, name, got, want)
			}
		}
	}
}

// TestStoredCorpusSharedLogs: two sessions over one stored corpus read
// the store's own logs, and extraction interns nothing for them: the
// extracted corpus keeps the stored LogSet itself.
func TestStoredCorpusSharedLogs(t *testing.T) {
	body := studyCorpora(t)["npgsql"]
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Ingest("acme", "c", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	stored, err := m.store.Get("acme", "c")
	if err != nil {
		t.Fatal(err)
	}
	p := aid.New()
	for i := range 2 {
		src, _, err := m.resolveSource("acme", SessionSpec{Study: "npgsql", Corpus: "c"})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := src.Collect(t.Context(), aid.CollectSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Set != nil {
			t.Errorf("session %d: the source handed over a Set", i)
		}
		if got := p.Extract(tr).Logs(); got != stored {
			t.Errorf("session %d: extraction read %p, not the stored logs %p", i, got, stored)
		}
	}
}

// TestStoredCorpusHeap: the six studies' corpora uploaded by four
// tenants keep under 8 MB of live heap after GC. Decoded sets kept
// about 12.6 MB for the same corpora; the race detector's
// instrumentation changes the allocations, so CI runs this without
// -race.
func TestStoredCorpusHeap(t *testing.T) {
	const limit = 8 << 20
	bodies := studyCorpora(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewManager(Config{})
	var stored int64
	for _, tenant := range []string{"t1", "t2", "t3", "t4"} {
		for _, name := range storedStudies {
			info, err := m.Ingest(tenant, name, bytes.NewReader(bodies[name]))
			if err != nil {
				t.Fatal(err)
			}
			stored += info.Bytes
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("24 stored corpora: %.2f MB live, %.2f MB by CorpusInfo.Bytes", float64(live)/(1<<20), float64(stored)/(1<<20))
	if live >= limit {
		t.Fatalf("stored corpora keep %d bytes live, want < %d", live, limit)
	}
	m.Close()
}
