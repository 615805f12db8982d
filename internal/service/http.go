package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bodyPool recycles request-read buffers so the color path allocates no
// scratch per request. Valid requests are a few hundred bytes; 4 KiB covers
// them without a grow, and grown buffers are recycled at their new size.
var bodyPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// readBody reads r to EOF into buf (io.ReadAll with a caller-owned buffer).
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	b := buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// Handler returns colord's HTTP API:
//
//	POST /v1/color  — body: a Request (JSON); response: a Response (JSON).
//	                  X-Colord-Cache reports hit|coalesced|miss; the body is
//	                  byte-identical regardless. With ?detail=1 the response
//	                  is the DetailResponse envelope instead (resolved alg,
//	                  quality tier, paletteBound, colorsUsed) — additive and
//	                  separately versioned; the default body never changes
//	                  shape.
//	POST /v1/mutate — body: a MutateRequest (JSON); response: a
//	                  MutateResponse (JSON). Mutations apply local repairs;
//	                  pure coloring reads render one atomic snapshot of the
//	                  session. Neither is cached: X-Colord-Cache is always
//	                  miss. ?detail=1 adds the palette-observability fields
//	                  to the response.
//	GET  /v1/subscribe?session=NAME
//	                — an SSE stream of the named session's recolor deltas
//	                  (see subscribe.go for the event contract).
//	GET  /healthz   — liveness probe.
//	GET  /statz     — ServiceStats snapshot (JSON).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/color", func(w http.ResponseWriter, r *http.Request) {
		// Valid requests are a few hundred bytes; refuse streamed novels.
		bp := bodyPool.Get().(*[]byte)
		body, err := readBody(http.MaxBytesReader(w, r.Body, 1<<16), *bp)
		*bp = body[:0]
		if err != nil {
			bodyPool.Put(bp)
			s.counters.stripe(0).badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		// The raw-query check is one string compare on the hot path; only
		// requests that actually carry a query string pay the parse.
		if r.URL.RawQuery != "" && r.URL.Query().Get("detail") == "1" {
			s.serveColorDetail(w, body)
			bodyPool.Put(bp)
			return
		}
		resp, key, outcome, err := s.HandleRaw(body)
		bodyPool.Put(bp)
		if err != nil {
			var bad *badRequestError
			status := http.StatusUnprocessableEntity
			if errors.As(err, &bad) {
				status = http.StatusBadRequest
			} else if err == ErrClosed {
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, err.Error())
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Colord-Cache", string(outcome))
		h.Set("X-Colord-Key", key)
		// Explicit Content-Length: the body is prerendered, so nothing needs
		// chunked framing (and simple raw-socket clients can rely on it).
		h.Set("Content-Length", strconv.Itoa(len(resp)))
		w.Write(resp)
	})
	mux.HandleFunc("POST /v1/mutate", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		// Mutation batches are bounded by the op list; 1 MiB admits ~50k
		// ops per request, far past the useful batch size.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.counters.stripe(0).badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		detail := r.URL.RawQuery != "" && r.URL.Query().Get("detail") == "1"
		resp, outcome, err := s.mutate(req, detail)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Colord-Cache", string(outcome))
		w.Header().Set("X-Colord-Fingerprint", resp.Fingerprint)
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /v1/subscribe", s.serveSubscribe)
	// The peer-fill plane: a cluster peer that misses on a key asks its
	// rendezvous owner for the encoded cache record before computing
	// locally. Strictly a cache peek — a miss is a plain 404 and never
	// triggers work, so peers cannot amplify load on each other.
	mux.HandleFunc("GET /internal/record", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if key == "" {
			httpError(w, http.StatusBadRequest, "record lookup needs a ?key= query parameter")
			return
		}
		rec, ok := s.CachedRecord(key)
		if !ok {
			httpError(w, http.StatusNotFound, "key not cached here")
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.Itoa(len(rec)))
		w.Write(rec)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Stats())
	})
	return mux
}

// serveColorDetail is the ?detail=1 lane of /v1/color: a full decode and a
// JSON render per request (no fast path, no prerendered bytes) in exchange
// for the palette-observability envelope. The computation underneath shares
// the result cache with the plain lane.
func (s *Service) serveColorDetail(w http.ResponseWriter, body []byte) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.counters.stripe(0).badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	resp, outcome, err := s.HandleDetail(req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if err == ErrClosed {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Colord-Cache", string(outcome))
	h.Set("X-Colord-Key", resp.Key)
	writeJSON(w, resp)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
