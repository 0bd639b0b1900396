package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// SyncPolicy selects when the log fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record returned from
	// Append survives an immediate crash. The default — one fsync per
	// daemon session is cheap next to the replays the record saves.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs only when the log is compacted or closed: appends
	// since the last compaction may be lost in a crash, never torn-read
	// — recovery drops the unsynced tail cleanly.
	SyncBatch
	// SyncNone never fsyncs (tests and benchmarks); crash durability is
	// whatever the OS page cache happens to have written.
	SyncNone
)

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, batch, or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// The on-disk format: an 8-byte magic header, then length-framed
// records — a 4-byte little-endian payload length, a 4-byte CRC32
// (Castagnoli) of the payload, the payload bytes. Any framing fault
// (short header, absurd length, checksum mismatch, short payload) ends
// the readable prefix; recovery keeps everything before it and
// truncates the rest.
const (
	logMagic       = "AIDLOG1\n"
	frameHeaderLen = 8
	// maxRecordBytes bounds one record (64 MiB), so a corrupt length
	// field cannot demand an absurd allocation.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecoveryInfo reports what OpenLog found and what it had to drop.
type RecoveryInfo struct {
	// RecordsKept counts records recovered intact.
	RecordsKept int
	// RecordsDropped counts records lost to corruption: damaged frames
	// plus a torn trailing record. After the first damaged frame the
	// framing can't be trusted, so the remainder counts as one drop
	// regardless of how many records it held.
	RecordsDropped int
	// DroppedBytes is the size of the discarded region.
	DroppedBytes int64
	// Truncated reports that the file was repaired (torn tail or
	// corrupt region cut off, or an unrecognized header discarded).
	Truncated bool
}

// Log is the append-only record log. It is safe for concurrent use;
// records are length-framed and checksummed so a torn append is
// detected — and dropped, never served — by the next OpenLog.
type Log struct {
	fs     FS
	path   string
	policy SyncPolicy

	mu    sync.Mutex
	f     File
	dirty bool
}

var errLogClosed = errors.New("durable: log is closed")

// OpenLog opens (creating if absent) the record log at path, returning
// the recovered records in append order plus what recovery kept and
// dropped. Corruption is never an error: a torn tail is truncated, a
// corrupt region is discarded from its first damaged frame, and an
// unrecognized header restarts the log empty — the returned
// RecoveryInfo says so. Only real I/O failures return an error.
func OpenLog(fsys FS, path string, policy SyncPolicy) (*Log, [][]byte, RecoveryInfo, error) {
	var info RecoveryInfo
	rf, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("durable: open log %s: %w", path, err)
	}
	data, err := io.ReadAll(rf)
	if err != nil {
		cerr := rf.Close()
		_ = cerr
		return nil, nil, info, fmt.Errorf("durable: read log %s: %w", path, err)
	}

	records, goodOff := scanRecords(data, &info)

	repair := func() error {
		if goodOff == int64(len(data)) {
			return nil
		}
		info.Truncated = true
		info.DroppedBytes = int64(len(data)) - goodOff
		if err := rf.Truncate(goodOff); err != nil {
			return fmt.Errorf("durable: repair log %s: %w", path, err)
		}
		if goodOff == 0 {
			// Header unrecognized (or file empty): restart the log.
			if _, err := rf.Seek(0, io.SeekStart); err != nil {
				return fmt.Errorf("durable: repair log %s: %w", path, err)
			}
			if _, err := rf.Write([]byte(logMagic)); err != nil {
				return fmt.Errorf("durable: repair log %s: %w", path, err)
			}
		}
		if policy != SyncNone {
			if err := rf.Sync(); err != nil {
				return fmt.Errorf("durable: repair log %s: %w", path, err)
			}
		}
		return nil
	}
	if len(data) == 0 {
		// Fresh log: write the header.
		if _, err := rf.Write([]byte(logMagic)); err != nil {
			cerr := rf.Close()
			_ = cerr
			return nil, nil, info, fmt.Errorf("durable: init log %s: %w", path, err)
		}
		if policy != SyncNone {
			if err := rf.Sync(); err != nil {
				cerr := rf.Close()
				_ = cerr
				return nil, nil, info, fmt.Errorf("durable: init log %s: %w", path, err)
			}
		}
	} else if err := repair(); err != nil {
		cerr := rf.Close()
		_ = cerr
		return nil, nil, info, err
	}
	if err := rf.Close(); err != nil {
		return nil, nil, info, fmt.Errorf("durable: close log %s after recovery: %w", path, err)
	}

	wf, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("durable: reopen log %s for append: %w", path, err)
	}
	return &Log{fs: fsys, path: path, policy: policy, f: wf}, records, info, nil
}

// scanRecords parses the readable prefix of a log image, filling info's
// kept/dropped counts and returning the records plus the offset the
// file remains valid to.
func scanRecords(data []byte, info *RecoveryInfo) ([][]byte, int64) {
	if len(data) == 0 {
		return nil, 0
	}
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != logMagic {
		// Unrecognized header: the whole image is untrusted.
		info.RecordsDropped++
		return nil, 0
	}
	var records [][]byte
	off := int64(len(logMagic))
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			info.RecordsDropped++ // torn frame header
			return records, off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordBytes || int64(frameHeaderLen)+int64(n) > int64(len(rest)) {
			info.RecordsDropped++ // absurd length or torn payload
			return records, off
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			info.RecordsDropped++ // checksum mismatch; framing untrusted beyond here
			return records, off
		}
		records = append(records, append([]byte(nil), payload...))
		info.RecordsKept++
		off += int64(frameHeaderLen) + int64(n)
	}
	return records, off
}

// frame builds a record's on-disk frame as one contiguous buffer, so
// the append is a single Write call and a crash can tear at most one
// record.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// Append writes one record, fsyncing per the policy. A failed append
// may leave a torn frame at the tail; the next OpenLog truncates it.
func (l *Log) Append(payload []byte) error {
	if int64(len(payload)) > maxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d MiB limit", len(payload), maxRecordBytes>>20)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errLogClosed
	}
	if _, err := l.f.Write(frame(payload)); err != nil {
		return fmt.Errorf("durable: append to %s: %w", l.path, err)
	}
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync %s: %w", l.path, err)
		}
		return nil
	}
	l.dirty = true
	return nil
}

// flushLocked fsyncs pending appends (a no-op under SyncAlways, which
// has none, and under SyncNone, which never syncs).
func (l *Log) flushLocked() error {
	if l.f == nil || !l.dirty || l.policy == SyncNone {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", l.path, err)
	}
	l.dirty = false
	return nil
}

// Compact atomically replaces the log's contents with exactly the
// given records: they are written to a temporary file, fsynced, renamed
// over the log, and the directory fsynced — a crash at any point leaves
// either the old log or the new one, never a mix. The log stays open
// for appends afterwards.
func (l *Log) Compact(records [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errLogClosed
	}
	tmp := l.path + ".tmp"
	err := func() error {
		f, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		wrote := func() error {
			if _, err := f.Write([]byte(logMagic)); err != nil {
				return err
			}
			for _, rec := range records {
				if _, err := f.Write(frame(rec)); err != nil {
					return err
				}
			}
			if l.policy != SyncNone {
				return f.Sync()
			}
			return nil
		}()
		cerr := f.Close()
		if wrote != nil {
			return wrote
		}
		return cerr
	}()
	if err != nil {
		l.fs.Remove(tmp) // best-effort: the stray tmp is inert either way
		return fmt.Errorf("durable: compact %s: %w", l.path, err)
	}

	// Swap the append handle to the new file: close the old one first
	// (its contents are superseded, so its close error is irrelevant —
	// but the swap must not leave both open).
	if l.f != nil {
		cerr := l.f.Close()
		_ = cerr
		l.f = nil
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		l.fs.Remove(tmp) // best-effort
		return fmt.Errorf("durable: compact %s: commit: %w", l.path, err)
	}
	if l.policy != SyncNone {
		if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
			return fmt.Errorf("durable: compact %s: %w", l.path, err)
		}
	}
	wf, err := l.fs.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact %s: reopen: %w", l.path, err)
	}
	l.f = wf
	l.dirty = false
	return nil
}

// Close flushes and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	ferr := l.flushLocked()
	cerr := l.f.Close()
	l.f = nil
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return fmt.Errorf("durable: close %s: %w", l.path, cerr)
	}
	return nil
}
