package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aid"
	"aid/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPEndToEnd drives the full daemon surface over the wire: ingest
// a corpus, start a session over it, stream its typed events, fetch the
// report (JSON byte-identical to the embedded run, plus the text
// rendering), and observe the status endpoints.
func TestHTTPEndToEnd(t *testing.T) {
	const succ, fail = 10, 10
	_, srv := newTestServer(t, Config{SessionBudget: 4, TenantCap: 8})

	// Embedded baseline over the same saved corpus.
	study := aid.CaseStudyByName("npgsql")
	tr, err := aid.New(aid.WithCorpusSize(succ, fail)).Collect(t.Context(), aid.FromStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/corpus.jsonl"
	if err := aid.WriteTraces(path, tr); err != nil {
		t.Fatal(err)
	}
	baselineRep, err := aid.New(aid.WithCorpusSize(succ, fail)).Run(t.Context(), aid.FromTraceFile(path).ForStudy(study))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := baselineRep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Ingest the corpus (PUT, JSON-lines body).
	var corpusBuf bytes.Buffer
	if err := trace.Encode(&corpusBuf, tr.Set); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/tenants/acme/corpora/run1", bytes.NewReader(corpusBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	info := decodeBody[CorpusInfo](t, resp)
	if info.Executions != len(tr.Set.Executions) {
		t.Fatalf("ingest info: %+v", info)
	}
	infos := decodeBody[[]CorpusInfo](t, mustGet(t, srv.URL+"/v1/tenants/acme/corpora"))
	if len(infos) != 1 || infos[0].Name != "run1" {
		t.Fatalf("corpora list: %+v", infos)
	}

	// Start a session over the stored corpus.
	resp = postJSON(t, srv.URL+"/v1/tenants/acme/sessions", SessionSpec{Study: "npgsql", Corpus: "run1", Successes: succ, Failures: fail})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: HTTP %d", resp.StatusCode)
	}
	status := decodeBody[SessionStatus](t, resp)
	if status.ID == "" || status.Tenant != "acme" {
		t.Fatalf("start status: %+v", status)
	}

	// Stream events until the session-end envelope; every line before it
	// must decode via the public event codec.
	streamResp := mustGet(t, srv.URL+"/v1/sessions/"+status.ID+"/events")
	defer streamResp.Body.Close()
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var events []aid.Event
	sawEnd := false
	for sc.Scan() {
		line := sc.Bytes()
		var env struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if env.Type == "session-end" {
			sawEnd = true
			var end struct {
				Event SessionStatus `json:"event"`
			}
			if err := json.Unmarshal(line, &end); err != nil {
				t.Fatal(err)
			}
			if end.Event.State != StateDone {
				t.Fatalf("session-end state %s (err %s)", end.Event.State, end.Event.Error)
			}
			continue
		}
		ev, err := aid.UnmarshalEvent(line)
		if err != nil {
			t.Fatalf("stream line did not decode as an event: %v (%q)", err, line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Fatal("stream ended without a session-end envelope")
	}
	if len(events) == 0 {
		t.Fatal("stream carried no pipeline events")
	}
	if _, ok := events[len(events)-1].(aid.DiscoveryDone); !ok {
		t.Errorf("last pipeline event is %T, want DiscoveryDone", events[len(events)-1])
	}

	// The report endpoint returns the embedded run's bytes.
	repResp := mustGet(t, srv.URL+"/v1/sessions/"+status.ID+"/report")
	defer repResp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(repResp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), baseline) {
		t.Error("daemon report JSON differs from embedded run")
	}
	textResp := mustGet(t, srv.URL+"/v1/sessions/"+status.ID+"/report?format=text")
	defer textResp.Body.Close()
	var text bytes.Buffer
	if _, err := text.ReadFrom(textResp.Body); err != nil {
		t.Fatal(err)
	}
	if want := baselineRep.FormatFull(); text.String() != want {
		t.Error("?format=text differs from Report.FormatFull")
	}

	// Resumed streams replay from the cursor.
	resume := mustGet(t, srv.URL+"/v1/sessions/"+status.ID+"/events?from=1")
	defer resume.Body.Close()
	var resumed bytes.Buffer
	if _, err := resumed.ReadFrom(resume.Body); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(resumed.String(), "\n"); n != len(events) { // len-1 events + session-end
		t.Errorf("resume from=1: %d lines, want %d", n, len(events))
	}

	// Session listing and stats.
	list := decodeBody[[]SessionStatus](t, mustGet(t, srv.URL+"/v1/tenants/acme/sessions"))
	if len(list) != 1 || list[0].State != StateDone {
		t.Fatalf("session list: %+v", list)
	}
	stats := decodeBody[ManagerStats](t, mustGet(t, srv.URL+"/v1/stats"))
	if stats.Sessions[StateDone] != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	// Delete the corpus; sessions over it now 404.
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/tenants/acme/corpora/run1", nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", delResp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/tenants/acme/sessions", SessionSpec{Study: "npgsql", Corpus: "run1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("session over deleted corpus: HTTP %d, want 404", resp.StatusCode)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp
}

// TestHTTPSaturation429: admission beyond the tenant cap maps to HTTP
// 429 with a Retry-After header; other tenants are still served.
func TestHTTPSaturation429(t *testing.T) {
	m, srv := newTestServer(t, Config{SessionBudget: 1, TenantCap: 2, RetryAfter: 2 * time.Second})

	// Fill the flood tenant's cap with blocked sessions (library-level:
	// blocking sources are a test hook, not an HTTP feature).
	src := newBlockingSource()
	s1, err := m.Start("flood", SessionSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered
	s2, err := m.Start("flood", SessionSpec{Source: newBlockingSource()})
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, srv.URL+"/v1/tenants/flood/sessions", SessionSpec{Study: "npgsql"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated start: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want 2", ra)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil || errBody.Error == "" {
		t.Errorf("429 body: %v / %+v", err, errBody)
	}

	// A light tenant is admitted during the flood.
	lresp := postJSON(t, srv.URL+"/v1/tenants/light/sessions", SessionSpec{Study: "npgsql", Successes: 5, Failures: 5})
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusAccepted {
		t.Fatalf("light tenant during flood: HTTP %d, want 202", lresp.StatusCode)
	}

	m.Cancel(s1.ID())
	m.Cancel(s2.ID())
}

// TestHTTPErrors pins the error mapping: unknown session → 404, unknown
// study → 400, bad spec JSON → 400, cancel → 204 and a cancelled state.
func TestHTTPErrors(t *testing.T) {
	m, srv := newTestServer(t, Config{SessionBudget: 2, TenantCap: 4})

	for _, url := range []string{
		srv.URL + "/v1/sessions/s-999999",
		srv.URL + "/v1/sessions/s-999999/events",
		srv.URL + "/v1/sessions/s-999999/report",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", url, resp.StatusCode)
		}
	}
	resp := postJSON(t, srv.URL+"/v1/tenants/acme/sessions", SessionSpec{Study: "nope"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown study: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/v1/tenants/acme/sessions", "application/json", strings.NewReader(`{"bogus": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown spec field: HTTP %d, want 400", resp.StatusCode)
	}

	// Cancel flow: a running session turns cancelled, its report 409s.
	src := newBlockingSource()
	s, err := m.Start("acme", SessionSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered
	cresp, err := http.Post(srv.URL+"/v1/sessions/"+s.ID()+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: HTTP %d", cresp.StatusCode)
	}
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled session did not finish")
	}
	rresp, err := http.Get(srv.URL + "/v1/sessions/" + s.ID() + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("report of cancelled session: HTTP %d, want 409", rresp.StatusCode)
	}
	status := decodeBody[SessionStatus](t, mustGet(t, srv.URL+"/v1/sessions/"+s.ID()))
	if status.State != StateCancelled {
		t.Errorf("state %s, want cancelled", status.State)
	}
}

// TestHTTPCorpusTooLarge: an ingest body over MaxCorpusBytes is refused
// with 413, not read into memory (a malformed-but-small body stays 400,
// so the two failure modes are distinguishable).
func TestHTTPCorpusTooLarge(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxCorpusBytes: 512})

	put := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/tenants/acme/corpora/big", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(bytes.Repeat([]byte("x"), 4096)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest: HTTP %d, want 413", code)
	}
	if code := put([]byte("not json\n")); code != http.StatusBadRequest {
		t.Errorf("malformed small ingest: HTTP %d, want 400", code)
	}
}

// TestHTTPSessionSpecTooLarge: a session spec over maxSpecBytes is
// refused with 413 rather than decoded without bound, and the daemon
// keeps answering.
func TestHTTPSessionSpecTooLarge(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	body := `{"study":"npgsql","corpus":"` + strings.Repeat("a", 2*maxSpecBytes) + `"}`
	resp, err := http.Post(srv.URL+"/v1/tenants/acme/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: HTTP %d, want 413", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after an oversized spec: HTTP %d", resp.StatusCode)
	}
}

// failStore simulates a broken storage backend: every operation returns
// an untyped I/O-ish error.
type failStore struct{}

func (failStore) Put(tenant, name string, set *trace.Set) error {
	return fmt.Errorf("failStore: disk on fire")
}
func (failStore) Get(tenant, name string) (*trace.Set, error) {
	return nil, fmt.Errorf("failStore: disk on fire")
}
func (failStore) List(tenant string) ([]CorpusInfo, error) {
	return nil, fmt.Errorf("failStore: disk on fire")
}
func (failStore) Delete(tenant, name string) error {
	return fmt.Errorf("failStore: disk on fire")
}

// TestHTTPServerFault500: store failures are server faults — they map
// to 500, not 400 (the client did nothing wrong).
func TestHTTPServerFault500(t *testing.T) {
	_, srv := newTestServer(t, Config{Store: failStore{}})

	resp, err := http.Get(srv.URL + "/v1/tenants/acme/corpora")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("list over broken store: HTTP %d, want 500", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/tenants/acme/corpora/c", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusInternalServerError {
		t.Errorf("delete over broken store: HTTP %d, want 500", dresp.StatusCode)
	}
}

// TestHTTPStreamFollowsLiveSession: a client attached before the
// session finishes receives the full stream and the end envelope — the
// follow path, not just the replay path.
func TestHTTPStreamFollowsLiveSession(t *testing.T) {
	m, srv := newTestServer(t, Config{SessionBudget: 2, TenantCap: 4})
	src := newBlockingSource()
	s, err := m.Start("acme", SessionSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	<-src.entered

	// Attach while the session is still collecting.
	resp := mustGet(t, srv.URL+"/v1/sessions/"+s.ID()+"/events")
	defer resp.Body.Close()
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if ok {
			t.Fatalf("stream delivered %q before the session produced events", line)
		}
		t.Fatal("stream closed early")
	case <-time.After(50 * time.Millisecond):
		// Still following: good.
	}

	m.Cancel(s.ID())
	var last string
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				if !strings.Contains(last, `"session-end"`) {
					t.Fatalf("stream ended with %q, want a session-end envelope", last)
				}
				if !strings.Contains(last, string(StateCancelled)) {
					t.Errorf("session-end does not carry the cancelled state: %q", last)
				}
				return
			}
			last = line
		case <-deadline:
			t.Fatal("stream never completed after cancel")
		}
	}
}
