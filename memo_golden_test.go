package aid_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aid"
)

// memoGoldenPath holds one line per study: name, byte length and
// SHA-256 of the study's seed-1 memo export.
var memoGoldenPath = filepath.Join("testdata", "memo", "exports.txt")

// memoFixtureStudy names the study whose full export is kept as a
// fixture (the smallest of the six).
const memoFixtureStudy = "npgsql"

// memoExport runs one study at the paper's defaults (50+50, seed 1)
// with one replay worker through a fresh shared scheduler and returns
// the scheduler's memo export. imported, when non-nil, is loaded into
// the scheduler before the run.
func memoExport(t *testing.T, study string, imported []byte) []byte {
	t.Helper()
	shared := aid.NewSharedScheduler()
	if imported != nil {
		if _, err := shared.ImportMemo(imported); err != nil {
			t.Fatal(err)
		}
	}
	p := aid.New(aid.WithWorkers(1), aid.WithSharedScheduler(shared))
	if _, err := p.Run(context.Background(), aid.FromStudy(aid.CaseStudyByName(study))); err != nil {
		t.Fatal(err)
	}
	data, err := shared.ExportMemo()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var seedOneExports struct {
	sync.Mutex
	data map[string][]byte
}

// seedOneExport is memoExport(t, study, nil), run once per study and
// test binary.
func seedOneExport(t *testing.T, study string) []byte {
	t.Helper()
	seedOneExports.Lock()
	defer seedOneExports.Unlock()
	if data, ok := seedOneExports.data[study]; ok {
		return data
	}
	data := memoExport(t, study, nil)
	if seedOneExports.data == nil {
		seedOneExports.data = map[string][]byte{}
	}
	seedOneExports.data[study] = data
	return data
}

func memoDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%d %s", len(data), hex.EncodeToString(sum[:]))
}

// TestMemoExportGolden pins the six studies' seed-1 memo exports by
// length and SHA-256 (-update rewrites the digests and the fixture).
// A memo export is what the daemon persists and reloads after a
// restart, so its bytes must not move when the observation
// representation does: a memo written by an older build has to load
// into a newer one.
func TestMemoExportGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGoldens {
		f, err := os.Open(memoGoldenPath)
		if err != nil {
			t.Fatalf("missing golden (run with -update to regenerate): %v", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, digest, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				t.Fatalf("malformed golden line %q", sc.Text())
			}
			want[name] = digest
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	for _, s := range aid.CaseStudies() {
		data := seedOneExport(t, s.Name)
		if len(data) == 0 {
			t.Fatalf("%s: empty memo export", s.Name)
		}
		got := memoDigest(data)
		lines = append(lines, s.Name+" "+got)
		if *updateGoldens {
			if s.Name == memoFixtureStudy {
				writeGolden(t, filepath.Join("testdata", "memo", s.Name+".json"), data)
			}
			continue
		}
		if want[s.Name] != got {
			t.Errorf("%s: memo export is %s, golden %s", s.Name, got, want[s.Name])
		}
	}
	if *updateGoldens {
		writeGolden(t, memoGoldenPath, []byte(strings.Join(lines, "\n")+"\n"))
	} else if len(want) != len(lines) {
		t.Errorf("golden lists %d studies, the tree has %d", len(want), len(lines))
	}
}

// TestMemoFixtureRoundTrip loads a memo export written by an earlier
// build and re-exports it, both staged (imported, never bound) and
// after the same study's seed-1 run has been served from it: every
// outcome the run needs is already in the memo, so the scheduler must
// export the fixture's bytes unchanged.
func TestMemoFixtureRoundTrip(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "memo", memoFixtureStudy+".json"))
	if err != nil {
		t.Fatal(err)
	}
	staged := aid.NewSharedScheduler()
	n, err := staged.ImportMemo(fixture)
	if err != nil {
		t.Fatal(err)
	}
	again, err := staged.ExportMemo()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, fixture) {
		t.Fatalf("staged re-export of %d entries drifted: %s, fixture %s", n, memoDigest(again), memoDigest(fixture))
	}
	if served := memoExport(t, memoFixtureStudy, fixture); !bytes.Equal(served, fixture) {
		t.Fatalf("re-export after a run served from the memo drifted: %s, fixture %s", memoDigest(served), memoDigest(fixture))
	}
}

// TestImportMemoSharesOneTable: every observation of a restored memo
// is drawn over one predicate table, whatever tables its decoding made,
// and the staged entries re-export the imported bytes.
func TestImportMemoSharesOneTable(t *testing.T) {
	for _, s := range aid.CaseStudies() {
		data := seedOneExport(t, s.Name)
		shared := aid.NewSharedScheduler()
		if _, err := shared.ImportMemo(data); err != nil {
			t.Fatal(err)
		}
		if n := aid.StagedMemoTables(shared); n != 1 {
			t.Errorf("%s: imported observations use %d tables, want 1", s.Name, n)
		}
		again, err := shared.ExportMemo()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-export drifted: %s, imported %s", s.Name, memoDigest(again), memoDigest(data))
		}
	}
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
