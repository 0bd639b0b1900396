package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxSpecBytes caps a session-spec body: a spec is a few hundred bytes
// of JSON, and an unbounded decode would let one request hold memory.
const maxSpecBytes = 1 << 20

// NewHandler builds the daemon's HTTP API over a manager. The surface
// is JSON everywhere, JSON *lines* on the two streaming-shaped
// endpoints (corpus ingest bodies and event streams), mirroring the
// trace codec and cmd/aid -save-traces:
//
//	GET    /v1/healthz                              liveness
//	GET    /v1/stats                                ManagerStats
//	PUT    /v1/tenants/{tenant}/corpora/{name}      ingest a JSON-lines corpus
//	GET    /v1/tenants/{tenant}/corpora             list corpora
//	DELETE /v1/tenants/{tenant}/corpora/{name}      delete a corpus
//	POST   /v1/tenants/{tenant}/sessions            start a session (body: SessionSpec)
//	GET    /v1/tenants/{tenant}/sessions            list the tenant's session statuses
//	GET    /v1/sessions/{id}                        session status
//	GET    /v1/sessions/{id}/events                 stream events as JSON lines (?from=N)
//	GET    /v1/sessions/{id}/report                 completed report (?format=text)
//	POST   /v1/sessions/{id}/cancel                 cancel
//
// Admission failures map to HTTP statuses at this layer only — the
// manager speaks typed errors: SaturatedError → 429 with Retry-After
// (so does an events request past the session's follower cap),
// DrainingError → 503, NotFoundError/unknown session → 404,
// UnknownStudyError and ValidationError → 400, an ingest body over the
// configured cap or a session spec over maxSpecBytes → 413. Untyped
// errors are server faults → 500.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	mux.HandleFunc("PUT /v1/tenants/{tenant}/corpora/{name}", func(w http.ResponseWriter, r *http.Request) {
		// Cap the ingest body so one tenant cannot OOM the daemon with
		// a single PUT; overflow surfaces as http.MaxBytesError inside
		// the decode failure and maps to 413 below.
		body := http.MaxBytesReader(w, r.Body, m.MaxCorpusBytes())
		info, err := m.Ingest(r.PathValue("tenant"), r.PathValue("name"), body)
		if err != nil {
			writeError(w, m, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}/corpora", func(w http.ResponseWriter, r *http.Request) {
		infos, err := m.Corpora(r.PathValue("tenant"))
		if err != nil {
			writeError(w, m, err)
			return
		}
		if infos == nil {
			infos = []CorpusInfo{}
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/corpora/{name}", func(w http.ResponseWriter, r *http.Request) {
		// Through the manager, not the store, so the tenant's scheduler
		// memos over the corpus are invalidated with it.
		if err := m.DeleteCorpus(r.PathValue("tenant"), r.PathValue("name")); err != nil {
			writeError(w, m, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions", func(w http.ResponseWriter, r *http.Request) {
		var spec SessionSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, m, validationf("service: bad session spec: %w", err))
			return
		}
		// The body is one spec: a second value or stray bytes after it
		// make it malformed, not a spec with a tail to ignore.
		if _, err := dec.Token(); err != io.EOF {
			if err == nil {
				err = errors.New("a second JSON value")
			}
			writeError(w, m, validationf("service: bad session spec: trailing data: %w", err))
			return
		}
		s, err := m.Start(r.PathValue("tenant"), spec)
		if err != nil {
			writeError(w, m, err)
			return
		}
		writeJSON(w, http.StatusAccepted, s.Status())
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions", func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("tenant")
		if err := ValidateName("tenant", tenant); err != nil {
			writeError(w, m, err)
			return
		}
		statuses := []SessionStatus{}
		for _, s := range m.Sessions(tenant) {
			statuses = append(statuses, s.Status())
		}
		writeJSON(w, http.StatusOK, statuses)
	})

	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Session(r.PathValue("id"))
		if !ok {
			writeError(w, m, errUnknownSession(r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("POST /v1/sessions/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if !m.Cancel(r.PathValue("id")) {
			writeError(w, m, errUnknownSession(r.PathValue("id")))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Session(r.PathValue("id"))
		if !ok {
			writeError(w, m, errUnknownSession(r.PathValue("id")))
			return
		}
		rep, js, err := s.Report()
		if err != nil {
			code := http.StatusConflict // not ready / failed / cancelled
			writeJSONError(w, code, err)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, rep.FormatFull())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(js)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Session(r.PathValue("id"))
		if !ok {
			writeError(w, m, errUnknownSession(r.PathValue("id")))
			return
		}
		from := 0
		if v := r.URL.Query().Get("from"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeJSONError(w, http.StatusBadRequest, fmt.Errorf("service: bad from index %q", v))
				return
			}
			from = n
		}
		unfollow, ok := s.follow()
		if !ok {
			tooManyRequests(w, fmt.Errorf("service: session %s already has %d event-stream followers; retry after %s", s.id, maxFollowers, retryAfter))
			return
		}
		defer unfollow()
		streamEvents(w, r, s, from)
	})

	return mux
}

// streamEvents writes the session's events as JSON lines, following the
// live session until it ends (or the client hangs up). The stream is a
// replay-then-follow over the session's buffered event log, so a slow
// client never backpressures the pipeline; it ends with one
// service-level envelope {"type":"session-end","event":<SessionStatus>}
// carrying the terminal status.
func streamEvents(w http.ResponseWriter, r *http.Request, s *Session, from int) {
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before blocking on a live session so the
		// client sees the stream open immediately.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	stop := r.Context().Done()
	for {
		lines, next, complete := s.Events(from)
		for _, line := range lines {
			w.Write(line)
			w.Write([]byte("\n"))
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		from = next
		if complete {
			break
		}
		s.WaitEvents(from, stop)
		if r.Context().Err() != nil {
			return
		}
	}
	enc.Encode(struct {
		Type  string        `json:"type"`
		Event SessionStatus `json:"event"`
	}{Type: "session-end", Event: s.Status()})
	if flusher != nil {
		flusher.Flush()
	}
}

func errUnknownSession(id string) error {
	return &NotFoundError{Name: id, kind: "session"}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// tooManyRequests writes a 429 asking the client to come back after
// retryAfter.
func tooManyRequests(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeJSONError(w, http.StatusTooManyRequests, err)
}

// writeError maps the manager's typed errors to HTTP statuses. Client
// faults all carry a type (saturation, not-found, unknown study,
// draining, oversized body, validation); anything untyped is a server
// fault — a store I/O failure, a pipeline error — and maps to 500, not
// 400.
func writeError(w http.ResponseWriter, m *Manager, err error) {
	var sat *SaturatedError
	var nf *NotFoundError
	var study *UnknownStudyError
	var drain *DrainingError
	var tooBig *http.MaxBytesError
	var invalid *ValidationError
	switch {
	case errors.As(err, &sat):
		tooManyRequests(w, err)
	case errors.As(err, &nf):
		writeJSONError(w, http.StatusNotFound, err)
	case errors.As(err, &study):
		writeJSONError(w, http.StatusBadRequest, err)
	case errors.As(err, &drain):
		writeJSONError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &tooBig):
		// Checked before ValidationError: the overflow surfaces inside
		// a corpus decode failure, which wraps it.
		writeJSONError(w, http.StatusRequestEntityTooLarge, err)
	case errors.As(err, &invalid):
		writeJSONError(w, http.StatusBadRequest, err)
	default:
		writeJSONError(w, http.StatusInternalServerError, err)
	}
}
