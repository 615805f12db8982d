// Command colordbench is colord's benchmark. One command per workload runs
// an in-process colord with cmd/colord's defaults (compiled engine, one
// worker per CPU, result and fast caches of 4096 entries, 64 built graphs,
// the 200µs batch window), drives it in a closed loop, checks every answer,
// and prints its end-to-end metrics, or with --trace 1 its per-layer
// metrics, each by name with its unit. The last line of standard output is
// the result as JSON; the exit code is non-zero when any answer fails
// verification. BENCHMARK.json at the repository root names the workloads
// and metrics and fixes each end-to-end metric's bound.
//
//	bash colordbench/run.sh --workload hot-read --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package from the sources of the checkout it runs in.
// The package is a Go module of its own whose go.mod points the repro module
// at the checkout root, so the root's `go build ./...` and `go test ./...`
// do not reach it; `go test` in this directory runs every workload for a
// fraction of a second, untraced and traced. Everything the build and the
// run write (Go build cache, binary, write-ahead logs, span files) stays
// under .bench_build.
//
// # Load
//
// Every workload is a closed loop: each client sends its next request only
// when the answer to the previous one is in, as colord's callers do. There
// are two client connections, fixed rather than taken from the host so that
// numbers compare across hosts (two is nproc on the reference host). Clients
// speak raw HTTP/1.1 over persistent connections with every request body
// encoded before the clock starts, and record latencies into fixed-size
// log-bucketed histograms (< 1% relative error), so client cost and memory
// do not grow with throughput. Every graph, algorithm and mutation-stream
// seed derives from --seed.
//
// A read run measures --seconds in 10 windows. A churn run makes 8
// repetitions of the same fixed work, whatever the host's speed: 3
// seed-derived inputs of 512 × --seconds / 3 mutations each, every
// repetition on fresh sessions. The client's throughput is the median over
// the windows or repetitions, its latency percentiles those of a read
// window (median over windows) or of all churn requests. setup_s is the
// median of 9 complete set-ups (servers started, inputs encoded, caches
// warmed or prefilled, sessions created); all but the last are torn down.
// The table above the JSON shows each metric's min–max spread.
//
// # Workloads
//
// Each workload isolates one code path of colord. How much of real traffic
// takes each path is not known: the repository holds no request log and no
// measured hit rate (the hit rates in DESIGN.md come from loadgen's own
// synthetic mix), so no workload, nor the four together, stands for a
// traffic mix.
//
// hot-read: POST /v1/color over 40 keys (loadgen's small mix, 5 templates ×
// 8 algorithm seeds, each seeded family on its own graph) after one warm-up
// pass: the cache-hit path (fast lane → handler → socket), with a working
// set far below the caches. Every answer must be a fast-lane hit,
// byte-identical to the key's first answer, which is itself
// legality-checked. Bypasses dist, graph, dynamic, wal, cluster.
//
// cold-read: POST /v1/color where every request is a key never asked
// before: the small mix plus quality "fewcolors" on gnm(64,192). Client c
// owns the algorithm seeds ≡ c (mod 2), so the clients never coalesce;
// template cycles alternate between fresh graph seeds (graph build,
// fingerprint, fresh runner pool) and the graphs of the cycle before
// (pooled runners). An untimed prefill of 4096 other keys fills the caches
// first, so they evict from the first timed request. The miss path
// (resolve → batcher → dist run → legality check → render) with a working
// set far above the caches, on both quality tiers. Every answer must be a
// miss; the service's counters must show no coalescing and one run per
// miss; the first 64 answers of each client and 32 per client per window
// are legality-checked on graphs the benchmark rebuilds. Bypasses the fast
// lane's hits, dynamic, wal, cluster.
//
// churn: one writer on POST /v1/mutate and one SSE subscriber on the same
// session, WAL on without fsync. Each input is a seed-derived gnm(128,384)
// and a window stream on it (a sliding window of 32 live inserts), sent in
// batches of 16. After each session's stream its coloring must equal
// dynamic.CanonicalColors of base plus ops with a matching fingerprint, and
// the feed must have delivered every delta with no seq gap. Then the node
// is closed and a fresh service.New over the WAL directory must answer the
// last repetition's sessions with the same fingerprints and colors. The
// whole mutation path: repair → WAL append → hub publish → subscriber
// write, plus recovery. A window stream, not a mix stream: a mix stream's
// edge count random-walks, so its cost would depend on the seed more than
// on the code. Bypasses dist scheduler runs, the result cache, cluster.
//
// gateway-read: hot-read's requests through an in-process two-node cluster
// behind cluster.Gateway (nodes wired with peer cache fill, as colorgate
// deploys them). Every answer must be byte-identical to the one a node
// gives directly. Isolates the gateway hop (JSON route probe, rendezvous
// rank, net/http upstream): its price is the ratio to hot-read. Bypasses
// dist, dynamic, wal.
//
// # End-to-end metrics
//
// A bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression.
//
//	metric         unit    better  bound    what
//	setup_s        s       lower   0.25     servers started, inputs encoded, caches warmed or prefilled
//	heap_mb        MB      lower   0.10     live heap after a forced GC at the end of the timed phase (server and client)
//	colors_used    colors  lower   0.00001  mean distinct colors per answer of the quality panel
//	rounds         rounds  lower   0.00001  mean rounds per answer of the quality panel
//	max_msg_bytes  B       lower   0.00001  largest message of any run behind the quality panel
//
// The quality panel is fixed, the same for every --seed, and asked after
// the timed phase. The read workloads ask /v1/color, through their own front
// door, for every cold-mix template (both quality tiers) with algorithm and
// graph seeds 1 to 8: 48 answers, each checked like a timed one. churn
// sends 3 fixed window streams of 1024 mutations to fresh sessions; its
// rounds and max_msg_bytes are those of the repair runs the mutation
// answers report, per 16-op request, and colors_used is over the final
// colorings. The three panel metrics are exact: the same code gives the
// same value on every run, and the bound is below the smallest move one
// color, round or byte more makes. They pin the paper's quality axis,
// palette size against rounds, and the LOCAL round and CONGEST
// message-size costs. Failed and unverified operations are the JSON's
// failed count against attempted (fail_frac in the table), which must be 0.
//
// The client's throughput and latency (ops_per_s, p50_us, p99_us), churn's
// commit-to-subscriber latency (hub.delta_us) and its recovery time
// (wal.recovery_s) are per-layer metrics: measured and reported, but not
// gated. On the reference host their spread over ten runs is far above 10%,
// and at times above 25% (see Host noise).
//
// # Per-layer metrics
//
// A traced run (--trace 1) alternates untraced and traced windows (read
// workloads: four of --seconds/4; churn: one repetition of each); the
// client metrics come from its untraced ones. Spans are kept in memory and
// written at the end to .bench_build/trace-WORKLOAD.tsv.gz: id, parent,
// name, start, end, connection. The store holds 2^20 spans (32 MiB);
// hot-read and gateway-read fill it before their second traced window ends,
// and the spans past it are counted and dropped. Spans are taken from this
// package's own code around the calls into each layer: the client around
// each request, a middleware around a node's or the gateway's http.Handler,
// and a RoundTripper passed as the gateway's GatewayConfig.Client. A
// handler span's parent is the client span on the same connection (the
// middleware reads r.RemoteAddr, the client knows its local address) whose
// interval contains it; an upstream span's parent is the gateway span with
// the same body hash that contains it. Inner layers have no hooks from
// outside, so they are timed by a ladder: the run replays a sample of the
// same inputs (hot keys, or the first 64 cold keys of each client, or the
// traced repetition's streams) straight through each layer's public
// functions. Each rung's colors, palette bound and run statistics must
// equal the service's answer for the same body, so the ladder cannot time
// a different algorithm than the one colord serves. Self time is a span
// minus its children, or for ladder rungs the difference between the
// enclosing call and the rungs inside it. A layer a workload bypasses
// reports 0.
//
//	metric                                  how measured                                  should move → on
//	ops_per_s, p50_us, p99_us               the client, untraced windows                  (client view) → all
//	net.wire_us.p50/.p99                    client span − handler span                    p50_us, ops_per_s → hot-read
//	service.http_us.p50/.p99                node handler span                             p50_us → hot-read, cold-read
//	service.fastlane_ns.p50                 ladder: HandleRaw on a repeat body            ops_per_s → hot-read
//	service.slowlane_self_us.p50/.p99       ladder: first-seen HandleRaw − rungs below    p50_us → cold-read
//	service.mutate_self_us.p50              mutate span − apply − WAL appends of batch    p50_us → churn
//	service.alloc_b_per_op, .allocs_per_op  MemStats delta / ops, untraced windows        ops_per_s → hot-read, gateway-read
//	service.hit_frac, .fast_hit_frac        Service.Stats() diff                          ops_per_s → cold-read
//	service.coalesce_frac, .runs_per_miss   Service.Stats() diff                          ops_per_s → cold-read
//	service.evictions_per_op, .errors       Service.Stats() diff                          ops_per_s → cold-read; failures → all
//	graph.build_us.p50/.p99                 ladder: GraphSpec.Build + Fingerprint         p50_us → cold-read
//	algreg.build_us.p50                     ladder: algreg.Resolve + Build*               p50_us → cold-read
//	dist.run_us.KIND-ALG.p50/.p99           ladder: Pool.RunAlgo, compiled engine         ops_per_s → cold-read
//	dist.allocs_per_run                     ladder: MemStats around each run              ops_per_s → cold-read
//	dist.rounds, .msg_bytes, .max_msg_bytes, .activations
//	                                        Result.Stats summed over the sample (exact)   rounds, max_msg_bytes → cold-read
//	check.legality_us.p50                   ladder: MergePortColors + Check*Coloring      p50_us → cold-read
//	dynamic.apply_us.p50/.p99               ladder: Maintainer.Apply per 16-op batch      ops_per_s, p50_us → churn
//	dynamic.dirty_per_op, .activations_per_op
//	                                        ladder: Report fields (exact)                 ops_per_s → churn
//	wal.append_us.p50/.p99, wal.bytes_per_op
//	                                        ladder: wal.Log.Append of the commit records  ops_per_s → churn
//	wal.open_s, dynamic.replay_s            ladder: wal.Open, then dynamic.Replay         wal.recovery_s → churn
//	wal.recovery_s                          service.New on the WAL dir → the last repetition's sessions read  (recovery) → churn
//	hub.delta_us.p50/.p99                   commit ts → subscriber receipt                (fan-out latency) → churn
//	hub.delivered, hub.dropped              Service.Stats() diff                          failures → churn
//	cluster.gateway_self_us.p50/.p99        gateway span − upstream span                  p50_us, ops_per_s → gateway-read
//	cluster.upstream_us.p50/.p99            RoundTripper span, body included              p50_us → gateway-read
//	cluster.retries, .peer_errors           Gateway.Stats() diff                          failures → gateway-read
//	setup.server_s, .inputs_s, .warmup_s    each set-up phase, median                     setup_s → all
//	trace.overhead_frac                     1 − traced / untraced ops_per_s               none
//	trace.self_sum_frac                     Σ p50 self times on the blocking path / client p50  none (≈ 1: the spans account for the latency)
//
// # Host noise
//
// The reference host shares its CPUs with other tenants, and its speed for
// this code drifts by tens of percent over seconds to hours: an identical
// CPU-bound loop takes between 1× and 1.9× its fastest time; five-second
// slices of one hot-read process served between 58k and 86k op/s; hot-read's
// ten-run median throughput was 73.8k op/s in one set and 57.8k in another
// two hours later. Over ten runs the client metrics spread by up to 0.32
// (churn's p99_us; the table below). Nothing measured inside a run removed
// this. The median, mean, faster half, fastest quarter, 90th percentile and
// maximum over 50 half-second windows spread alike. Process CPU time per
// operation spread more than wall time: the CPU itself runs slower.
// Normalizing by calibration loops run between windows (arithmetic, random
// memory reads, a loopback HTTP echo) cut the spread by a third at best, and
// would no longer report what a client sees. A 10% gate on these metrics
// would fail a change measured against itself, so they are reported, not
// gated; the gated metrics are the ones that repeat.
//
// # Baseline
//
// Reference host: a 2-vCPU VM (CPU model "Intel(R) Xeon(R) Processor",
// 2.1 GHz), nproc 2, GOMAXPROCS 2, go1.24.0, linux/amd64, 8 GB. Two sets of
// ten 25-second runs per workload, seeds 1–10 and 101–110, workloads
// interleaved; each cell is the median of the ten runs and, in brackets,
// the distance between their first and third quartiles as a share of that
// median. Every run verified every answer (failed = 0). The panel metrics
// read the same on all 80 runs: colors_used 7.7708, rounds 80.3333 and
// max_msg_bytes 15 on the read workloads; 15.3333, 105.6042 and 30 on
// churn.
//
//	workload      metric       set 1              set 2              set 2 vs 1
//	hot-read      setup_s      0.1031  [0.191]    0.1007  [0.146]    −2.3%
//	              heap_mb      1.935   [0.003]    1.934   [0.003]     0.0%
//	              ops_per_s    57835   [0.095]    60245   [0.048]    +4.2%   (layer)
//	              p50_us       26.87   [0.141]    26.23   [0.088]    −2.4%   (layer)
//	              p99_us       116.9   [0.127]    109.9   [0.081]    −6.0%   (layer)
//	cold-read     setup_s      0.2641  [0.178]    0.2519  [0.120]    −4.6%
//	              heap_mb      9.724   [0.003]    9.730   [0.002]    +0.1%
//	              ops_per_s    416.3   [0.093]    423.4   [0.063]    +1.7%   (layer)
//	              p50_us       2171    [0.081]    2122    [0.050]    −2.3%   (layer)
//	              p99_us       23336   [0.106]    22144   [0.067]    −5.1%   (layer)
//	churn         setup_s      0.0632  [0.240]    0.0651  [0.094]    +2.9%
//	              heap_mb      13.58   [0.019]    13.46   [0.021]    −0.9%
//	              ops_per_s    6070    [0.216]    5924    [0.066]    −2.4%   (layer)
//	              p50_us       2438    [0.212]    2532    [0.067]    +3.9%   (layer)
//	              p99_us       5448    [0.303]    5678    [0.319]    +4.2%   (layer)
//	gateway-read  setup_s      0.1650  [0.151]    0.1595  [0.162]    −3.3%
//	              heap_mb      2.867   [0.049]    2.872   [0.019]    +0.2%
//	              ops_per_s    16538   [0.115]    17542   [0.098]    +6.1%   (layer)
//	              p50_us       92.54   [0.119]    87.10   [0.068]    −5.9%   (layer)
//	              p99_us       549.7   [0.102]    508.2   [0.109]    −7.6%   (layer)
//
// Every gated metric's set-to-set move is within its bound, and so is every
// gated spread but setup_s's, which is held to its median only. heap_mb
// spreads by at most 0.049, under half its bound.
//
// One traced run per workload (seed 7, 25 s), p50 / p99 where both exist:
//
//	hot-read      net.wire_us 26.3 / 63.5, service.http_us 3.31 / 9.71,
//	              service.fastlane_ns 123, service.alloc_b_per_op 2624,
//	              service.allocs_per_op 30.0, trace.self_sum_frac 0.99,
//	              trace.overhead_frac −0.03 (within the host's noise)
//	cold-read     net.wire_us 81 / 2923, service.http_us 1979 / 21968,
//	              service.slowlane_self_us 1231 / 9321 (mostly the batch
//	              window), graph.build_us 71 / 126, algreg.build_us 3.1,
//	              dist.run_us edge-be 3375 / 4237, edge-pr 1122 / 1362,
//	              edge-greedy 36 / 42, edge-fewcolors 11895 / 19439,
//	              vertex-be 606 / 722, vertex-greedy 13.6 / 29.4,
//	              check.legality_us 6.6, dist.rounds 9640,
//	              dist.msg_bytes 3154184, dist.max_msg_bytes 16,
//	              dist.activations 548759, service.runs_per_miss 1,
//	              service.coalesce_frac 0, service.evictions_per_op 0.98,
//	              trace.self_sum_frac 0.96
//	churn         service.http_us 2678 / 5719, service.mutate_self_us 637,
//	              dynamic.apply_us 1951 / 5064 per 16-op batch,
//	              dynamic.dirty_per_op 10.9, dynamic.activations_per_op 70.3,
//	              wal.append_us 1.14 / 3.61, wal.bytes_per_op 45.0,
//	              wal.open_s 0.0061, dynamic.replay_s 1.65,
//	              wal.recovery_s 1.58 (3 sessions, 12768 records),
//	              hub.delta_us 113 / 3294, hub.dropped 0,
//	              trace.self_sum_frac 0.99
//	gateway-read  net.wire_us 25.3 / 91.0, cluster.gateway_self_us 10.4 / 26.5,
//	              cluster.upstream_us 56.7 / 210.6, service.http_us 3.53 / 9.39,
//	              service.alloc_b_per_op 17896, service.allocs_per_op 145,
//	              cluster.retries 0, trace.self_sum_frac 0.99
package main
