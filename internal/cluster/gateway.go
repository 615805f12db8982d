package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
)

// GatewayConfig sizes a Gateway. Peers is required; everything else
// defaults.
type GatewayConfig struct {
	// Peers are the colord base URLs ("http://host:port") the gateway routes
	// across.
	Peers []string
	// Client issues all upstream requests (default: http.Transport with
	// per-peer keep-alive). Streaming subscriptions share it, so it must not
	// set a global Timeout; bounded calls wrap their own contexts.
	Client *http.Client
	// HealthInterval is the background probe cadence (default 500ms).
	HealthInterval time.Duration
}

// peerState is one upstream's health word. healthy flips passively (a dial
// failure during forwarding marks it down immediately) and actively (the
// prober confirms /healthz either way), so routing reacts at request speed
// and recovers at probe speed.
type peerState struct {
	url     string
	healthy atomic.Bool
}

// gatewayCounters is the cluster plane of the gateway's /statz.
type gatewayCounters struct {
	colorForwards     atomic.Int64
	mutateForwards    atomic.Int64
	subscribeForwards atomic.Int64
	retries           atomic.Int64
	peerErrors        atomic.Int64
	badRequests       atomic.Int64
}

// Gateway routes colord's API across a peer set by rendezvous hash: color
// reads by graph spec, sessions by name. It holds no coloring state of its
// own — determinism means any peer *can* answer anything; the gateway's job
// is only to make sure repeats land where the answer is already cached.
//
// Retry discipline: coloring reads are idempotent and retry down the key's
// rank order on any network error or 5xx. Mutations are not idempotent —
// they retry only on dial errors (no bytes reached the peer, so the op
// cannot have applied). Subscriptions are streamed through with per-chunk
// flushes and no retry (the client's Last-Event-ID reconnect is the retry).
type Gateway struct {
	ring   *Ring
	peers  map[string]*peerState
	client *http.Client
	ctr    gatewayCounters

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewGateway builds a gateway and starts its health prober. Close releases
// it.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	ring := NewRing(cfg.Peers)
	if ring.Len() == 0 {
		return nil, errors.New("cluster: gateway needs at least one peer")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	interval := cfg.HealthInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	g := &Gateway{
		ring:   ring,
		peers:  make(map[string]*peerState, ring.Len()),
		client: client,
		stop:   make(chan struct{}),
	}
	for _, p := range ring.Peers() {
		st := &peerState{url: p}
		// Optimistic start: peers are routable until a probe or a dial says
		// otherwise, so the gateway serves immediately after boot.
		st.healthy.Store(true)
		g.peers[p] = st
	}
	g.wg.Add(1)
	go g.probeLoop(interval)
	return g, nil
}

// Close stops the health prober. In-flight requests finish on their own.
func (g *Gateway) Close() {
	close(g.stop)
	g.wg.Wait()
}

func (g *Gateway) probeLoop(interval time.Duration) {
	defer g.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			for _, st := range g.peers {
				g.probe(st)
			}
		}
	}
}

func (g *Gateway) probe(st *peerState) {
	req, err := http.NewRequest("GET", st.url+"/healthz", nil)
	if err != nil {
		st.healthy.Store(false)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := g.client.Do(req.WithContext(ctx))
	if err != nil {
		st.healthy.Store(false)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	st.healthy.Store(resp.StatusCode == http.StatusOK)
}

// rank orders the key's peers for attempting: healthy peers in rendezvous
// order first, then down peers in rendezvous order as a last resort (a "down"
// mark may be stale, and a wrong guess only costs one failed dial).
func (g *Gateway) rank(key string) []*peerState {
	ranked := g.ring.Rank(key)
	out := make([]*peerState, 0, len(ranked))
	for _, p := range ranked {
		if st := g.peers[p]; st.healthy.Load() {
			out = append(out, st)
		}
	}
	for _, p := range ranked {
		if st := g.peers[p]; !st.healthy.Load() {
			out = append(out, st)
		}
	}
	return out
}

// isDialError reports whether err failed before any bytes reached the peer —
// the only failure mode where retrying a non-idempotent request is safe.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// forward POSTs body to one peer and relays the response verbatim, plus an
// X-Colord-Peer header naming where it ran. Returns false when the caller
// should try the next peer (and true when a response — any response — was
// written).
func (g *Gateway) forward(w http.ResponseWriter, path string, body []byte, st *peerState, retryOn5xx bool, last bool) bool {
	req, err := http.NewRequest("POST", st.url+path, strings.NewReader(string(body)))
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return true
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		g.ctr.peerErrors.Add(1)
		st.healthy.Store(false)
		if !last {
			return false
		}
		httpError(w, http.StatusBadGateway, fmt.Sprintf("cluster: peer %s: %v", st.url, err))
		return true
	}
	defer resp.Body.Close()
	if retryOn5xx && resp.StatusCode >= 500 && !last {
		g.ctr.peerErrors.Add(1)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return false
	}
	h := w.Header()
	for _, k := range []string{"Content-Type", "Content-Length", "X-Colord-Cache", "X-Colord-Key", "X-Colord-Fingerprint"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Colord-Peer", st.url)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// Handler returns the gateway's HTTP surface: colord's public API, routed.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/color", g.serveColor)
	mux.HandleFunc("POST /v1/mutate", g.serveMutate)
	mux.HandleFunc("GET /v1/subscribe", g.serveSubscribe)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		for _, st := range g.peers {
			if st.healthy.Load() {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				w.Write([]byte("ok\n"))
				return
			}
		}
		httpError(w, http.StatusServiceUnavailable, "no healthy peers")
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g.Stats())
	})
	return mux
}

// serveColor routes a coloring read by its graph spec and retries down the
// rank order: reads are idempotent and deterministic, so any peer's answer
// is the right answer — the routing is purely a cache-locality play.
func (g *Gateway) serveColor(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		g.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var probe struct {
		Graph exp.GraphSpec `json:"graph"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		g.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	g.ctr.colorForwards.Add(1)
	order := g.rank(ColorKey(probe.Graph.String()))
	for i, st := range order {
		if i > 0 {
			g.ctr.retries.Add(1)
		}
		if g.forward(w, withQuery("/v1/color", r), body, st, true, i == len(order)-1) {
			return
		}
	}
}

// withQuery returns path followed by r's query string, if it has one, so
// request options such as ?detail=1 reach the node.
func withQuery(path string, r *http.Request) string {
	if r.URL.RawQuery == "" {
		return path
	}
	return path + "?" + r.URL.RawQuery
}

// serveMutate routes a session request to its owner. Mutations are not
// idempotent, so only dial errors (nothing sent) move to the next peer;
// anything after bytes hit the wire is relayed as-is.
func (g *Gateway) serveMutate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		g.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	var probe struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || probe.Session == "" {
		g.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "mutate request needs a session name")
		return
	}
	g.ctr.mutateForwards.Add(1)
	order := g.rank(SessionKey(probe.Session))
	for i, st := range order {
		last := i == len(order)-1
		req, err := http.NewRequest("POST", st.url+withQuery("/v1/mutate", r), strings.NewReader(string(body)))
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.client.Do(req)
		if err != nil {
			g.ctr.peerErrors.Add(1)
			st.healthy.Store(false)
			if isDialError(err) && !last {
				g.ctr.retries.Add(1)
				continue
			}
			httpError(w, http.StatusBadGateway, fmt.Sprintf("cluster: peer %s: %v", st.url, err))
			return
		}
		h := w.Header()
		for _, k := range []string{"Content-Type", "X-Colord-Cache", "X-Colord-Fingerprint"} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		h.Set("X-Colord-Peer", st.url)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
}

// serveSubscribe streams the session owner's SSE feed through, flushing per
// chunk so deltas are not buffered in the gateway. Last-Event-ID passes
// through untouched: resume semantics live on the owner.
func (g *Gateway) serveSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("session")
	if name == "" {
		g.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "subscribe needs a ?session=NAME query parameter")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	g.ctr.subscribeForwards.Add(1)
	order := g.rank(SessionKey(name))
	for i, st := range order {
		last := i == len(order)-1
		req, err := http.NewRequest("GET", st.url+withQuery("/v1/subscribe", r), nil)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			req.Header.Set("Last-Event-ID", v)
		}
		resp, err := g.client.Do(req.WithContext(r.Context()))
		if err != nil {
			g.ctr.peerErrors.Add(1)
			st.healthy.Store(false)
			if isDialError(err) && !last {
				g.ctr.retries.Add(1)
				continue
			}
			httpError(w, http.StatusBadGateway, fmt.Sprintf("cluster: peer %s: %v", st.url, err))
			return
		}
		h := w.Header()
		for _, k := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		h.Set("X-Colord-Peer", st.url)
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					break
				}
				flusher.Flush()
			}
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return
	}
}

// PeerStatus is one upstream in the gateway's /statz.
type PeerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// GatewayStats is the gateway's /statz body: the peer gauge plane plus the
// forwarding counters.
type GatewayStats struct {
	Peers             []PeerStatus `json:"peers"`
	HealthyPeers      int          `json:"healthyPeers"`
	ColorForwards     int64        `json:"colorForwards"`
	MutateForwards    int64        `json:"mutateForwards"`
	SubscribeForwards int64        `json:"subscribeForwards"`
	Retries           int64        `json:"retries"`
	PeerErrors        int64        `json:"peerErrors"`
	BadRequests       int64        `json:"badRequests"`
}

// Stats snapshots the gateway.
func (g *Gateway) Stats() GatewayStats {
	s := GatewayStats{
		ColorForwards:     g.ctr.colorForwards.Load(),
		MutateForwards:    g.ctr.mutateForwards.Load(),
		SubscribeForwards: g.ctr.subscribeForwards.Load(),
		Retries:           g.ctr.retries.Load(),
		PeerErrors:        g.ctr.peerErrors.Load(),
		BadRequests:       g.ctr.badRequests.Load(),
	}
	for _, p := range g.ring.Peers() {
		healthy := g.peers[p].healthy.Load()
		if healthy {
			s.HealthyPeers++
		}
		s.Peers = append(s.Peers, PeerStatus{URL: p, Healthy: healthy})
	}
	return s
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
