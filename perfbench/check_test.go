package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aid"
	"aid/internal/synthetic"
)

func TestTallyCountsEveryFailureKind(t *testing.T) {
	var tl tally
	tl.add(nil, nil)
	for k := range numFailKinds {
		tl.add(failf(k, "case %d", k))
	}
	tl.add(failf(failRoot, "a"), failf(failRepeat, "b")) // one op, two failed checks
	if tl.attempted != int(numFailKinds)+2 || tl.failed != int(numFailKinds)+1 {
		t.Fatalf("attempted %d failed %d", tl.attempted, tl.failed)
	}
	for k, n := range tl.byKind {
		want := 1
		if failKind(k) == failRoot || failKind(k) == failRepeat {
			want = 2
		}
		if n != want {
			t.Errorf("%s counted %d times, want %d", failKind(k), n, want)
		}
	}
	if got, want := tl.errorRate(), float64(tl.failed)/float64(tl.attempted); got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
}

func TestCheckClassifiesFailures(t *testing.T) {
	st := aid.CaseStudyByName("npgsql")
	for _, tc := range []struct {
		name string
		got  *failure
		want failKind
		ok   bool
	}{
		{"run error", checkStudyRun(st.Name, nil, errors.New("boom"), st.WantRootPrefix), failError, false},
		{"wrong root", checkStudyRun(st.Name, &aid.Report{RootCause: "slow:Elsewhere"}, nil, st.WantRootPrefix), failRoot, false},
		{"right root", checkStudyRun(st.Name, &aid.Report{RootCause: st.WantRootPrefix + "#0"}, nil, st.WantRootPrefix), 0, true},
		{"wrong path", checkSynthetic(10, fmt.Errorf("AID found x: %w", synthetic.ErrMisidentified)), failPath, false},
		{"sweep error", checkSynthetic(10, errors.New("boom")), failError, false},
		{"sweep ok", checkSynthetic(10, nil), 0, true},
		{"429", checkHTTP("POST", http.StatusTooManyRequests), failHTTP, false},
		{"500", checkHTTP("GET", http.StatusInternalServerError), failHTTP, false},
		{"201", checkHTTP("PUT", http.StatusCreated), 0, true},
	} {
		switch {
		case tc.ok && tc.got != nil:
			t.Errorf("%s: unexpected failure %s: %s", tc.name, tc.got.kind, tc.got.detail)
		case !tc.ok && (tc.got == nil || tc.got.kind != tc.want):
			t.Errorf("%s: got %v, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// fakeDaemon speaks enough of the daemon's API to drive the serve
// client, misbehaving as mode says.
type fakeDaemon struct {
	mode string
	mu   sync.Mutex
	seq  int
	spec map[string]sessionSpec
}

func (f *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case r.Method == http.MethodPut:
		w.WriteHeader(http.StatusCreated)
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/sessions"):
		if f.mode == "saturated" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
			return
		}
		var spec sessionSpec
		json.NewDecoder(r.Body).Decode(&spec)
		f.seq++
		id := fmt.Sprintf("s-%06d", f.seq)
		f.spec[id] = spec
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	case strings.HasSuffix(r.URL.Path, "/events"):
		state := "done"
		if f.mode == "failed-session" {
			state = "failed"
		}
		fmt.Fprintln(w, `{"type":"traces-collected","event":{}}`)
		fmt.Fprintln(w, `{"type":"discovery-done","event":{}}`)
		fmt.Fprintf(w, `{"type":"session-end","event":{"state":%q}}`+"\n", state)
	case strings.HasSuffix(r.URL.Path, "/report"):
		id := strings.Split(r.URL.Path, "/")[3]
		root := aid.CaseStudyByName(f.spec[id].Study).WantRootPrefix
		if f.mode == "wrong-root" {
			root = "slow:Elsewhere"
		}
		nonce := 0
		if f.mode == "unstable-report" {
			nonce = f.seq
		}
		fmt.Fprintf(w, `{"rootCause":%q,"aidInterventions":4,"nonce":%d}`, root, nonce)
	default:
		http.NotFound(w, r)
	}
}

// runFake drives one caller against a fake daemon for a moment.
func runFake(t *testing.T, mode string) *callerLog {
	t.Helper()
	srv := httptest.NewServer(&fakeDaemon{mode: mode, spec: map[string]sessionSpec{}})
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	l := &callerLog{first: map[tenantSpec][]byte{}}
	gen := newServeGen(1, 0, tenants[:2], testStudies)
	corpora := map[string][]byte{}
	for _, s := range testStudies {
		corpora[s] = []byte("{}\n")
	}
	runCaller(context.Background(), c, 0, gen, corpora, time.Now().Add(300*time.Millisecond), false, newRecorder(), "self", l)
	if l.tally.attempted < 100 {
		t.Fatalf("%s: only %d ops attempted", mode, l.tally.attempted)
	}
	if l.rssErr != nil || len(l.rss) != l.tally.attempted {
		t.Fatalf("%s: %d RSS samples for %d ops (%v)", mode, len(l.rss), l.tally.attempted, l.rssErr)
	}
	return l
}

func TestServeCallerCountsEveryFailureKind(t *testing.T) {
	if l := runFake(t, "ok"); l.tally.failed != 0 {
		t.Fatalf("a well-behaved daemon failed %d ops: %v", l.tally.failed, l.tally.examples)
	}
	for mode, kind := range map[string]failKind{
		"saturated":       failHTTP,
		"failed-session":  failState,
		"wrong-root":      failRoot,
		"unstable-report": failRepeat,
	} {
		l := runFake(t, mode)
		sessions := 0
		for _, n := range l.tally.byKind {
			sessions += n
		}
		if l.tally.byKind[kind] == 0 || l.tally.byKind[kind] != sessions {
			t.Errorf("%s: failures by kind %v, want only %s", mode, l.tally.byKind, kind)
		}
		if l.tally.failed != l.tally.byKind[kind] {
			t.Errorf("%s: %d ops failed, %d %s checks", mode, l.tally.failed, l.tally.byKind[kind], kind)
		}
	}
}

func TestServeClientCountsTransportErrors(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	if _, f := c.session(context.Background(), "t", sessionSpec{Study: "npgsql"}, false); f == nil || f.kind != failError {
		t.Fatalf("got %v, want an error failure", f)
	}
	if f := c.put(context.Background(), "t", "npgsql", []byte("{}")); f == nil || f.kind != failError {
		t.Fatalf("got %v, want an error failure", f)
	}
}

func TestGCPauseParsing(t *testing.T) {
	lines := []string{
		"aid serve: listening on http://127.0.0.1:1",
		"gc 7 @0.318s 1%: 0.012+1.1+0.003 ms clock, 0.012+0.1/0.2/0+0.003 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 1 P",
		"gc 8 @0.400s 1%: 0.5+2+0.25 ms clock, 0.5+0/0/0+0.25 ms cpu, 4->5->1 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 1 P (forced)",
	}
	if got, want := gcPauseMs(lines), 0.012+0.003+0.5+0.25; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("gcPauseMs = %v, want %v", got, want)
	}
}
