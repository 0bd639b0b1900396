package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"sort"
	"sync"

	"aid"
	"aid/internal/durable"
	"aid/internal/trace"
)

// This file is the daemon's crash-consistent persistence: per-tenant
// scheduler memos survive restarts in a durable.Log of persistRecord
// frames under Config.PersistDir. The discipline, per the PR 7-review
// invariant extended to disk (and the FO+MOD-queries-under-updates
// anchor): a persisted answer is only ever served for the exact corpus
// it was derived over, so every record carries that corpus's
// fingerprint and recovery drops — never trusts — a record whose
// corpus changed or vanished. Recovery itself follows the durable
// layer's warm-start rule: corruption costs cache warmth, not startup.

// memoLogName is the memo log's file name inside Config.PersistDir.
const memoLogName = "memo.log"

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
	// Epoch is the manager's memo tick at persist time: it restores LRU
	// order across the restart and makes record supersession observable.
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
	// Error, when non-empty, reports the persistence layer could not be
	// opened at all — the daemon then runs with persistence disabled
	// (degradation, not failure; the error also surfaces here so it is
	// observable, not silent).
	Error string `json:"error,omitempty"`
}

// persistor is the manager's handle on the memo log plus its error
// accounting (persist failures never fail a session; they count here
// and surface on the stats endpoint).
type persistor struct {
	log *durable.Log

	mu   sync.Mutex
	errs int
}

func (p *persistor) noteErr() {
	p.mu.Lock()
	p.errs++
	p.mu.Unlock()
}

func (p *persistor) errors() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errs
}

// fingerprintLogs hashes a corpus's canonical encoding: the JSON lines
// of the set the logs intern, which are the bytes of the set they were
// interned from. Two corpora fingerprint equal exactly when their
// JSON-lines encodings are byte-identical — the same equivalence the
// Rebind contract needs.
func fingerprintLogs(logs *trace.LogSet) string {
	h := sha256.New()
	// Encode into a hash never fails; a marshal failure would have
	// failed ingest long before.
	_ = trace.Encode(h, logs.Set())
	return hex.EncodeToString(h.Sum(nil))
}

// corpusFingerprint resolves and hashes a tenant's stored corpus (""
// for live-collection memos, which no corpus change can invalidate).
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

// openPersist opens (or creates) the memo log and restores tenant memos
// from it. Called once from NewManager, before any session can start.
// Never fatal: an unopenable log records its error in RecoveryStats and
// leaves persistence disabled; corrupt or stale records are counted and
// dropped.
func (m *Manager) openPersist() {
	fsys := m.cfg.PersistFS
	if fsys == nil {
		fsys = durable.OS()
	}
	stats := &RecoveryStats{}
	m.recovery = stats
	if err := fsys.MkdirAll(m.cfg.PersistDir, 0o755); err != nil {
		stats.Error = err.Error()
		return
	}
	log, records, info, err := durable.OpenLog(fsys, filepath.Join(m.cfg.PersistDir, memoLogName), m.cfg.Fsync)
	if err != nil {
		stats.Error = err.Error()
		return
	}
	m.persist = &persistor{log: log}
	stats.RecordsKept = info.RecordsKept
	stats.RecordsDropped = info.RecordsDropped
	stats.ColdStart = info.RecordsDropped > 0 && info.RecordsKept == 0

	// Last record wins per (tenant, key): appends supersede, compaction
	// collapses. Order preserved for deterministic restore.
	type slot struct {
		rec persistRecord
		ord int
	}
	latest := map[string]*slot{}
	var order []string
	for _, payload := range records {
		var rec persistRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Tenant == "" || rec.Key == "" {
			// A record that passed the CRC but not the schema (e.g. a
			// format change): drop it like any other corruption.
			stats.Invalidated++
			continue
		}
		id := rec.Tenant + "\x00" + rec.Key
		if s, ok := latest[id]; ok {
			s.rec = rec
			continue
		}
		latest[id] = &slot{rec: rec, ord: len(order)}
		order = append(order, id)
	}

	corpora := map[string]bool{}
	var maxEpoch int64
	for _, id := range order {
		rec := latest[id].rec
		fp, err := m.corpusFingerprint(rec.Tenant, rec.Corpus)
		if err != nil || fp != rec.Fingerprint {
			// Corpus vanished or its content changed since the memo was
			// derived: the persisted outcomes may be poison — drop them.
			stats.Invalidated++
			continue
		}
		sched := aid.NewSharedScheduler()
		n, err := sched.ImportMemo(rec.Memo)
		if err != nil {
			stats.Invalidated++
			continue
		}
		ts := m.tenants[rec.Tenant]
		if ts == nil {
			ts = &tenantState{shared: map[string]*tenantMemo{}}
			m.tenants[rec.Tenant] = ts
		}
		ts.shared[rec.Key] = &tenantMemo{corpus: rec.Corpus, fp: fp, lastUse: rec.Epoch, sched: sched}
		if rec.Corpus != "" {
			corpora[rec.Tenant+"/"+rec.Corpus] = true
		}
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
		stats.Memos++
		stats.MemoEntries += n
	}
	// Resume the memo tick past every restored epoch so LRU recency and
	// future persist epochs stay monotonic across the restart.
	if maxEpoch > m.memoTick {
		m.memoTick = maxEpoch
	}
	stats.Corpora = len(corpora)

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

// persistSession appends the session's memo snapshot to the log after
// the session finishes — the incremental persistence path (Shutdown
// compacts). Skips silently when the memo was invalidated or evicted
// while the session ran: its outcomes may not match the current corpus,
// and a stale record must never be written.
func (m *Manager) persistSession(s *Session, shared *aid.SharedScheduler) {
	if m.persist == nil || shared == nil {
		return
	}
	key := s.spec.shareKey()
	m.mu.Lock()
	var memo *tenantMemo
	if ts := m.tenants[s.tenant]; ts != nil {
		memo = ts.shared[key]
	}
	if memo == nil || memo.sched != shared {
		m.mu.Unlock()
		return
	}
	rec := persistRecord{
		Tenant:      s.tenant,
		Key:         key,
		Corpus:      memo.corpus,
		Fingerprint: memo.fp,
		Epoch:       memo.lastUse,
	}
	m.mu.Unlock()

	data, err := shared.ExportMemo()
	if err != nil {
		m.persist.noteErr()
		return
	}
	if data == nil {
		return // nothing worth persisting
	}
	rec.Memo = data
	payload, err := json.Marshal(rec)
	if err != nil {
		m.persist.noteErr()
		return
	}
	if err := m.persist.log.Append(payload); err != nil {
		m.persist.noteErr()
	}
}

// compactPersist rewrites the memo log to exactly the live memos — the
// graceful-drain snapshot: after it, a restart replays one record per
// memo instead of one per session, and the rewrite is atomic (the
// durable layer's write-tmp-rename), so a crash mid-compaction leaves
// the old log intact.
func (m *Manager) compactPersist() {
	if m.persist == nil {
		return
	}
	type item struct {
		rec   persistRecord
		sched *aid.SharedScheduler
	}
	m.mu.Lock()
	var items []item
	for tenant, ts := range m.tenants {
		for key, memo := range ts.shared {
			items = append(items, item{
				rec: persistRecord{
					Tenant:      tenant,
					Key:         key,
					Corpus:      memo.corpus,
					Fingerprint: memo.fp,
					Epoch:       memo.lastUse,
				},
				sched: memo.sched,
			})
		}
	}
	m.mu.Unlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].rec.Tenant != items[j].rec.Tenant {
			return items[i].rec.Tenant < items[j].rec.Tenant
		}
		return items[i].rec.Key < items[j].rec.Key
	})

	var recs [][]byte
	for _, it := range items {
		data, err := it.sched.ExportMemo()
		if err != nil {
			m.persist.noteErr()
			continue
		}
		if data == nil {
			continue
		}
		it.rec.Memo = data
		payload, err := json.Marshal(it.rec)
		if err != nil {
			m.persist.noteErr()
			continue
		}
		recs = append(recs, payload)
	}
	if err := m.persist.log.Compact(recs); err != nil {
		m.persist.noteErr()
	}
}

// closePersist flushes and closes the memo log (idempotent).
func (m *Manager) closePersist() {
	if m.persist == nil {
		return
	}
	if err := m.persist.log.Close(); err != nil {
		m.persist.noteErr()
	}
}
