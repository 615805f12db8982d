// Command colord is the coloring daemon: a long-running HTTP/JSON service
// that serves deterministic edge- and vertex-coloring requests on top of the
// dist runtime, with a bounded worker stage, single-flight coalescing of
// concurrent misses, and a deterministic result cache (see internal/service).
//
// Usage:
//
//	colord -addr :7080 -workers 8 -engine compiled
//
// Durability: -wal-dir makes dynamic sessions durable — every committed
// mutation appends to a per-session write-ahead log, and sessions replay
// from their logs on restart (-wal-sync additionally fsyncs per commit).
//
// Clustering: -peers lists every node's base URL and -self names this one;
// the node then fills result-cache misses from each key's rendezvous owner
// before computing (see internal/cluster). Front the peer set with colorgate
// for routing.
//
// API:
//
//	POST /v1/color   {"kind":"edge","alg":"be","graph":{"family":"gnm","n":256,"m":1024,"seed":1},"seed":7}
//	POST /v1/mutate  {"session":"s1","base":{...},"ops":[{"op":"insert","u":3,"v":9}]}
//	GET  /v1/subscribe?session=s1   (SSE: per-mutation recolor deltas)
//	GET  /healthz
//	GET  /statz
//
// The X-Colord-Cache response header reports hit|coalesced|miss; response
// bodies are byte-identical across the three, and identical to a direct
// dist.Run of the same request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/service"
)

func runtimeWorkers() int { return runtime.GOMAXPROCS(0) }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "colord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("colord", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":7080", "listen address (use :0 for an ephemeral port with -addr-file)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening (harness handshake)")
		workers  = fs.Int("workers", 0, "concurrent algorithm executions (0 = GOMAXPROCS)")
		engine   = fs.String("engine", "compiled", "default dist scheduler: goroutines|lockstep|sharded|compiled (requests may override)")
		cache    = fs.Int("cache", 4096, "result cache and wire fast-path cache capacity (entries each)")
		graphs   = fs.Int("graphs", 64, "built-graph cache capacity (entries)")
		subsMax  = fs.Int("max-subscribers", 4096, "global cap on concurrent SSE subscribers")
		subsPer  = fs.Int("session-subscribers", 1024, "per-session SSE subscriber quota")
		feedBuf  = fs.Int("feed-buffer", 256, "delta frames buffered per session feed (the subscriber lag bound)")
		walDir   = fs.String("wal-dir", "", "write-ahead-log directory for durable dynamic sessions (empty = memory-only)")
		walSync  = fs.Bool("wal-sync", false, "fsync the session WAL on every commit")
		peers    = fs.String("peers", "", "comma-separated base URLs of every cluster node (enables peer cache fill)")
		self     = fs.String("self", "", "this node's base URL as it appears in -peers")
		pprofA   = fs.String("pprof", "", "serve net/http/pprof on this side address (empty = off), e.g. localhost:6060")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := dist.ParseEngine(*engine)
	if err != nil {
		return err
	}
	w := *workers
	if w <= 0 {
		w = runtimeWorkers()
	}
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			return fmt.Errorf("wal dir: %w", err)
		}
	}
	cfg := service.Config{
		Workers:            w,
		Engine:             eng,
		CacheEntries:       *cache,
		GraphEntries:       *graphs,
		MaxSubscribers:     *subsMax,
		SessionSubscribers: *subsPer,
		FeedBuffer:         *feedBuf,
		WALDir:             *walDir,
		WALSync:            *walSync,
	}
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self (this node's URL within the peer set)")
		}
		filler := cluster.NewFiller(strings.Split(*peers, ","), *self, nil, 0)
		cfg.RemoteFill = filler.Fill
	}
	s := service.New(cfg)
	defer s.Close()

	if *pprofA != "" {
		// The profiling endpoints live on their own listener, never on the
		// serving address: /debug/pprof stays unreachable from service
		// traffic and can bind a loopback-only port.
		go func() {
			log.Printf("colord: pprof on http://%s/debug/pprof/", *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Printf("colord: pprof server: %v", err)
			}
		}()
	}

	// Explicit Listen (rather than ListenAndServe) so :0 resolves to a real
	// port before -addr-file is written — the crash-test and bench harnesses
	// wait on that file instead of racing a fixed port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("addr file: %w", err)
		}
	}
	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("colord: serving on %s (workers=%d engine=%v cache=%d graphs=%d wal=%q)",
		bound, w, eng, *cache, *graphs, *walDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		log.Printf("colord: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
