package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"aid"
	"aid/internal/durable"
	"aid/internal/trace"
)

// This file is the daemon's crash-consistent persistence: each tenant
// scheduler memo survives restarts as one file under Config.PersistDir,
// <tenant>/<sha256(shareKey)>.memo, holding a persistRecord behind a
// CRC32-C checksum and written the way FileStore writes a corpus
// (writeFile). Per the FO+MOD-queries-under-updates anchor, the
// directory keeps exactly the current answer per key, not its history.
// A persisted answer is only ever served for the exact corpus it was
// derived over, so every record carries that corpus's fingerprint and
// recovery drops — never trusts — a record whose corpus changed or
// vanished. Corruption costs the corrupt memo's warmth, never startup.

// memoExt ends the name of a memo file; the ".tmp" sibling of an
// interrupted write does not carry it.
const memoExt = ".memo"

// memoCRC is the checksum table of memo files (CRC32-C).
var memoCRC = crc32.MakeTable(crc32.Castagnoli)

// persistRecord is one persisted memo: a tenant's shared scheduler
// snapshot keyed by the session fingerprint it serves.
type persistRecord struct {
	// Tenant and Key identify the memo (Key is SessionSpec.shareKey()).
	Tenant string `json:"tenant"`
	Key    string `json:"key"`
	// Corpus names the stored corpus the memo's outcomes were replayed
	// against ("" for live-collection sessions); Fingerprint is that
	// corpus's content hash at memo-creation time. A recovery-time
	// mismatch invalidates the record.
	Corpus      string `json:"corpus,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Epoch is the manager's memo tick when the file was written; a
	// restored memo takes it as its LRU recency.
	Epoch int64 `json:"epoch"`
	// Memo is the aid.SharedScheduler.ExportMemo snapshot.
	Memo json.RawMessage `json:"memo"`
}

// RecoveryStats is the serializable outcome of a daemon's startup
// recovery (GET /v1/stats, "recovery"). Mirrors aid.StateRecovered.
type RecoveryStats struct {
	Corpora        int  `json:"corpora"`
	Memos          int  `json:"memos"`
	MemoEntries    int  `json:"memoEntries"`
	RecordsKept    int  `json:"recordsKept"`
	RecordsDropped int  `json:"recordsDropped"`
	Invalidated    int  `json:"invalidated"`
	ColdStart      bool `json:"coldStart"`
	// Error, when non-empty, reports the state directory could not be
	// read at all — the daemon then runs with persistence disabled
	// (degradation, not failure; the error also surfaces here so it is
	// observable, not silent).
	Error string `json:"error,omitempty"`
}

// persistor writes and removes the memo files, counting its failures
// (they never fail a session; they surface on the stats endpoint). io
// serializes every write and removal together with the check before it
// that the memo is still current, so two writes never share a file's
// tmp name and a removal never deletes the file of a memo that replaced
// the removed one under its key. Lock order: io, then Manager.mu.
type persistor struct {
	fs   durable.FS
	dir  string
	io   sync.Mutex
	errs atomic.Int64
}

func (p *persistor) errors() int {
	if p == nil {
		return 0
	}
	return int(p.errs.Load())
}

// path names the file of a tenant's memo under a share key.
func (p *persistor) path(tenant, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(p.dir, tenant, hex.EncodeToString(sum[:])+memoExt)
}

// write replaces the record's file with the payload's CRC32-C (4
// bytes, little-endian) followed by the payload, the record's JSON.
func (p *persistor) write(rec persistRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	path := p.path(rec.Tenant, rec.Key)
	if err := p.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFile(p.fs, path, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, crc32.Checksum(payload, memoCRC)); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// read loads the memo file at path in the tenant's directory. It
// reports false for a file that cannot be read, fails its checksum, or
// does not hold a record of this tenant whose key names this file.
func (p *persistor) read(tenant, path string) (persistRecord, bool) {
	var rec persistRecord
	f, err := p.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return rec, false
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil || cerr != nil || len(data) < 4 {
		return rec, false
	}
	payload := data[4:]
	if crc32.Checksum(payload, memoCRC) != binary.LittleEndian.Uint32(data) {
		return rec, false
	}
	if json.Unmarshal(payload, &rec) != nil || rec.Tenant != tenant || p.path(tenant, rec.Key) != path {
		return rec, false
	}
	return rec, true
}

// remove deletes a memo file; one already gone is no failure.
func (p *persistor) remove(path string) {
	if err := p.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		p.errs.Add(1)
	}
}

// fingerprintLogs hashes a corpus's canonical encoding: the logs' JSON
// lines, which are the bytes of the corpus they were decoded from. Two
// corpora fingerprint equal exactly when their JSON-lines encodings are
// byte-identical — the same equivalence the Rebind contract needs.
func fingerprintLogs(logs *trace.LogSet) string {
	h := sha256.New()
	// Writing into a hash never fails.
	_ = trace.EncodeLogs(h, logs)
	return hex.EncodeToString(h.Sum(nil))
}

// corpusFingerprint resolves and hashes a tenant's stored corpus (""
// for live-collection memos, which no corpus change can invalidate).
// Recovery calls it before any session runs; a session hashes the logs
// it resolved instead (Manager.Start).
func (m *Manager) corpusFingerprint(tenant, corpus string) (string, error) {
	if corpus == "" {
		return "", nil
	}
	logs, err := m.store.Get(tenant, corpus)
	if err != nil {
		return "", err
	}
	return fingerprintLogs(logs), nil
}

// openPersist restores tenant memos from the memo files under
// Config.PersistDir. Called once from NewManager, before any session
// can start. Never fatal: a state directory that cannot be created or
// listed records its error in RecoveryStats and leaves persistence
// disabled; a corrupt or stale memo file is counted and removed.
func (m *Manager) openPersist() {
	fsys := m.cfg.PersistFS
	if fsys == nil {
		fsys = durable.OS()
	}
	stats := &RecoveryStats{}
	m.recovery = stats
	p := &persistor{fs: fsys, dir: m.cfg.PersistDir}
	type memoFile struct{ tenant, path string }
	var files []memoFile
	err := func() error {
		if err := fsys.MkdirAll(p.dir, 0o755); err != nil {
			return err
		}
		tenants, err := fsys.ReadDir(p.dir)
		if err != nil {
			return err
		}
		for _, td := range tenants {
			if !td.IsDir() || ValidateName("tenant", td.Name()) != nil {
				continue
			}
			entries, err := fsys.ReadDir(filepath.Join(p.dir, td.Name()))
			if err != nil {
				return err
			}
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), memoExt) {
					files = append(files, memoFile{td.Name(), filepath.Join(p.dir, td.Name(), e.Name())})
				}
			}
		}
		return nil
	}()
	if err != nil {
		stats.Error = err.Error()
		return
	}
	m.persist = p

	corpora := map[string]bool{}
	var maxEpoch int64
	for _, f := range files {
		rec, ok := p.read(f.tenant, f.path)
		if !ok {
			stats.RecordsDropped++
			p.remove(f.path)
			continue
		}
		stats.RecordsKept++
		fp, err := m.corpusFingerprint(rec.Tenant, rec.Corpus)
		if err != nil || fp != rec.Fingerprint {
			// Corpus vanished or its content changed since the memo was
			// derived: the persisted outcomes may be poison — drop them.
			stats.Invalidated++
			p.remove(f.path)
			continue
		}
		sched := aid.NewSharedScheduler()
		n, err := sched.ImportMemo(rec.Memo)
		if err != nil {
			stats.Invalidated++
			p.remove(f.path)
			continue
		}
		ts := m.tenants[rec.Tenant]
		if ts == nil {
			ts = &tenantState{shared: map[string]*tenantMemo{}}
			m.tenants[rec.Tenant] = ts
		}
		ts.shared[rec.Key] = &tenantMemo{corpus: rec.Corpus, fp: fp, lastUse: rec.Epoch, sched: sched, onDisk: true}
		if rec.Corpus != "" {
			corpora[rec.Tenant+"/"+rec.Corpus] = true
		}
		maxEpoch = max(maxEpoch, rec.Epoch)
		stats.Memos++
		stats.MemoEntries += n
	}
	// Resume the memo tick past every restored epoch so LRU recency and
	// future epochs stay monotonic across the restart.
	m.memoTick = max(m.memoTick, maxEpoch)
	stats.Corpora = len(corpora)
	stats.ColdStart = stats.RecordsDropped > 0 && stats.RecordsKept == 0

	if m.cfg.Observer != nil {
		m.cfg.Observer.OnEvent(aid.StateRecovered{
			Corpora:        stats.Corpora,
			Memos:          stats.Memos,
			MemoEntries:    stats.MemoEntries,
			RecordsKept:    stats.RecordsKept,
			RecordsDropped: stats.RecordsDropped,
			Invalidated:    stats.Invalidated,
			ColdStart:      stats.ColdStart,
		})
	}
}

// memoLocked returns the tenant's current memo under key (m.mu held).
func (m *Manager) memoLocked(tenant, key string) *tenantMemo {
	if ts := m.tenants[tenant]; ts != nil {
		return ts.shared[key]
	}
	return nil
}

// persistSession writes the session's memo to its file after the
// session finishes, when the memo's scheduler has executed an
// intervention since the file was last written: a session served
// wholly from the memo writes nothing. Skips a memo invalidated or
// evicted while the session ran: its outcomes may not match the
// current corpus, and a stale file must never be written.
func (m *Manager) persistSession(s *Session, shared *aid.SharedScheduler) {
	if m.persist == nil || shared == nil {
		return
	}
	m.persist.io.Lock()
	defer m.persist.io.Unlock()
	m.writeMemoLocked(s.tenant, s.spec.shareKey(), shared)
}

// writeMemoLocked is persistSession's work, with the persistor's io
// lock held.
func (m *Manager) writeMemoLocked(tenant, key string, shared *aid.SharedScheduler) {
	p := m.persist
	m.mu.Lock()
	memo := m.memoLocked(tenant, key)
	if memo == nil || memo.sched != shared {
		m.mu.Unlock()
		return
	}
	rec := persistRecord{
		Tenant:      tenant,
		Key:         key,
		Corpus:      memo.corpus,
		Fingerprint: memo.fp,
		Epoch:       memo.lastUse,
	}
	m.mu.Unlock()

	// Read the count before the export: a sibling session's concurrent
	// rounds then at worst cause one more write, never a missed one.
	executions := shared.Stats().Executions
	if executions == memo.written {
		return
	}
	data, err := shared.ExportMemo()
	if err != nil {
		p.errs.Add(1)
		return
	}
	if data == nil {
		return // nothing worth persisting
	}
	rec.Memo = data
	if err := p.write(rec); err != nil {
		p.errs.Add(1)
		return
	}
	memo.written = executions
	memo.onDisk = true
}

// droppedMemo is a memo taken out of its tenant's map by LRU eviction
// or invalidation, with its key.
type droppedMemo struct {
	key  string
	memo *tenantMemo
}

// removeMemoFiles deletes the files of dropped memos. A file stays when
// a memo that replaced the dropped one under its key has written it
// since.
func (m *Manager) removeMemoFiles(tenant string, dropped []droppedMemo) {
	p := m.persist
	if p == nil || len(dropped) == 0 {
		return
	}
	p.io.Lock()
	defer p.io.Unlock()
	for _, d := range dropped {
		if !d.memo.onDisk {
			continue
		}
		m.mu.Lock()
		cur := m.memoLocked(tenant, d.key)
		m.mu.Unlock()
		if cur == nil || !cur.onDisk {
			p.remove(p.path(tenant, d.key))
		}
	}
}
