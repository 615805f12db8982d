package main

import (
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/service"
)

// colordConfig is cmd/colord's default configuration: compiled engine, one
// worker per CPU, and the service's own defaults for everything else (result
// and fast caches of 4096 entries, 64 built graphs, the 200µs batch window).
func colordConfig() service.Config {
	return service.Config{Workers: runtime.GOMAXPROCS(0), Engine: dist.Compiled}
}

// httpServer is one loopback listener serving a handler; close stops it and
// waits for its Serve loop to return.
type httpServer struct {
	srv  *http.Server
	addr string // host:port
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// A Serve that fails before close surfaces as the clients'
		// connection errors, which every workload counts as failed ops.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

func (s *httpServer) url() string { return "http://" + s.addr }

// node is one in-process colord: a service behind its HTTP handler.
type node struct {
	svc  *service.Service
	http *httpServer
}

// startNode starts a colord on a loopback port. With a tracer, its POST
// handlers are timed.
func startNode(cfg service.Config, tr *tracer) (*node, error) {
	svc := service.New(cfg)
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = tr.wrapNode(h)
	}
	hs, err := serve(h)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &node{svc: svc, http: hs}, nil
}

func (n *node) close() {
	n.http.close()
	n.svc.Close()
}

// fleet is an in-process cluster: colord nodes wired with peer cache fill,
// behind a cluster.Gateway, as colorgate deploys them.
type fleet struct {
	nodes     []*node
	gw        *cluster.Gateway
	gwHTTP    *httpServer
	transport *http.Transport
}

func startFleet(n int, tr *tracer) (*fleet, error) {
	f := &fleet{}
	fillers := make([]atomic.Pointer[cluster.Filler], n)
	var peers []string
	for i := 0; i < n; i++ {
		cfg := colordConfig()
		slot := &fillers[i]
		cfg.RemoteFill = func(graphName, key string) []byte {
			if fl := slot.Load(); fl != nil {
				return fl.Fill(graphName, key)
			}
			return nil
		}
		nd, err := startNode(cfg, tr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
		peers = append(peers, nd.http.url())
	}
	for i := range fillers {
		fillers[i].Store(cluster.NewFiller(peers, peers[i], nil, 0))
	}
	// The gateway's own default transport, made explicit so the benchmark
	// can close its idle connections and, when tracing, time it.
	f.transport = &http.Transport{MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second}
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = &timedTransport{t: tr, base: f.transport}
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Peers: peers, Client: &http.Client{Transport: rt}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.wrapGateway(h)
	}
	if f.gwHTTP, err = serve(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	if f.gwHTTP != nil {
		f.gwHTTP.close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, nd := range f.nodes {
		nd.close()
	}
}
