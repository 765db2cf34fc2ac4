// Command heserver runs the cloud service of the paper's Fig. 11: a TCP
// server in front of the serving engine, which batches homomorphic Add,
// Mult, and Rotate requests onto a pool of simulated Arm+FPGA co-processor
// workers.
//
// Usage:
//
//	heserver -addr :7100 -seed 42              # small test parameters
//	heserver -addr :7100 -paper -seed 42       # the paper's n = 4096 set
//	heserver -workers 4 -queue-depth 256       # bigger pool, deeper queue
//
// The key material is derived deterministically from -seed so that a client
// started with the same seed (see examples/cloud) holds the matching keys;
// in a real deployment the client would upload its public and relin keys
// instead.
//
// Observability: SIGUSR1 dumps the engine's stats snapshot (counters,
// latency histograms including queue wait / batch assembly / service time,
// per-worker simulated cycles, and the goroutine pool's task/steal/width
// accounting) as JSON to stderr; the same dump is emitted on graceful
// shutdown (SIGINT/SIGTERM). The snapshot is also published under expvar
// name "engine". With -debug-addr set, an HTTP debug endpoint serves
//
//	/debug/vars        expvar JSON (includes the engine snapshot)
//	/debug/stats       the engine snapshot alone, pretty-printed
//	/debug/pprof/...   net/http/pprof profiles (CPU, heap, goroutine, ...)
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// The command's flags, at package level so that TestFlagSetGolden can list
// them without starting a server.
var (
	addr         = flag.String("addr", "127.0.0.1:7100", "listen address")
	paper        = flag.Bool("paper", false, "use the paper parameter set (n = 4096) instead of the small test set")
	tmod         = flag.Uint64("t", 65537, "plaintext modulus")
	seed         = flag.Uint64("seed", 42, "deterministic key seed shared with the client")
	workers      = flag.Int("workers", runtime.NumCPU(), "worker pool size, one simulated co-processor each (the paper's platform is 2)")
	queueDepth   = flag.Int("queue-depth", 64, "admission queue bound; a full queue rejects with an overload error")
	deadline     = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	maxBatch     = flag.Int("batch", 8, "max compatible ops dispatched to a worker as one batch")
	keyCache     = flag.Int("keycache", 8, "per-worker evaluation-key cache slots (LRU)")
	tenants      = flag.String("tenants", "", "comma-separated extra tenant namespaces to register the seed-derived keys under (cluster deployments replicate keys to every node this way)")
	nodeID       = flag.String("node-id", "", "node name advertised in info replies and used as the cluster ring identity (default: the bound address)")
	readTimeout  = flag.Duration("read-timeout", cloud.DefaultReadTimeout, "per-request read deadline on client connections")
	drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight work")
	debugAddr    = flag.String("debug-addr", "", "listen address for the HTTP debug endpoint (expvar + pprof); empty disables it")
	integrity    = flag.Bool("integrity", false, "verify co-processor results with Freivalds fingerprints; a mismatch fails the op with a retryable integrity error instead of returning corrupted data")
	ckksServe    = flag.Bool("ckks", false, "additionally serve the CKKS approximate-arithmetic commands (CmdCKKSAdd/Mul/Rotate); CKKS keys are derived from -seed on an independent PRNG stream, with rotation keys installed for slot shifts 1, 2, 4, and 8")
	tenantQuota  = flag.Int("tenant-quota", 0, "max in-flight ops per tenant on this node; excess is rejected with a retryable quota error (0 = unlimited)")
)

func main() {
	flag.Parse()

	// Validate before building anything: a nonsensical flag is a usage
	// error (exit 2), not a crash or a silently misbehaving server.
	switch {
	case *workers <= 0:
		usageError(fmt.Errorf("-workers must be positive, got %d", *workers))
	case *queueDepth <= 0:
		usageError(fmt.Errorf("-queue-depth must be positive, got %d", *queueDepth))
	case *maxBatch <= 0:
		usageError(fmt.Errorf("-batch must be positive, got %d", *maxBatch))
	case *keyCache <= 0:
		usageError(fmt.Errorf("-keycache must be positive, got %d", *keyCache))
	case *deadline < 0:
		usageError(fmt.Errorf("-deadline must not be negative, got %v", *deadline))
	case *deadline > 0 && *deadline < time.Millisecond:
		usageError(fmt.Errorf("-deadline %v is below 1ms; every request would expire before execution", *deadline))
	case *readTimeout <= 0:
		usageError(fmt.Errorf("-read-timeout must be positive, got %v", *readTimeout))
	case *drainTimeout <= 0:
		usageError(fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout))
	case *tenantQuota < 0:
		usageError(fmt.Errorf("-tenant-quota must not be negative, got %d", *tenantQuota))
	}
	for _, tn := range tenantList(*tenants) {
		if len(tn) > cloud.MaxTenantLen {
			usageError(fmt.Errorf("-tenants entry %q longer than %d bytes", tn, cloud.MaxTenantLen))
		}
	}

	cfg := fv.TestConfig(*tmod)
	if *paper {
		cfg = fv.PaperConfig(*tmod)
	}
	params, err := fv.NewParams(cfg)
	if err != nil {
		fatal(err)
	}
	// Account pool fan-out (task counts, steals, width utilization); the
	// engine folds the snapshot into Stats().
	params.Pool.EnableMetrics()
	prng := sampler.NewPRNG(*seed)
	kg := fv.NewKeyGenerator(params, prng)
	sk, _, rk := kg.GenKeys()

	// The CKKS lane rides alongside BFV on the same engine: its own prime
	// chain sized to match the BFV ring, keys derived from the same -seed on
	// an independent PRNG stream (the client repeats the derivation).
	var cparams *ckks.Params
	var crk *ckks.RelinKey
	var cgalois []*ckks.GaloisKey
	if *ckksServe {
		ccfg := ckks.TestConfig()
		if *paper {
			ccfg = ckks.PaperConfig()
		}
		cparams, err = ckks.NewParams(ccfg)
		if err != nil {
			fatal(err)
		}
		ckg := ckks.NewKeyGenerator(cparams, sampler.NewPRNG(*seed))
		csk, _, rk := ckg.GenKeys()
		crk = rk
		for r := 1; r <= 8; r *= 2 {
			cgalois = append(cgalois, ckg.GenGaloisKey(csk, cparams.GaloisElementForRotation(r)))
		}
	}

	eng, err := engine.New(engine.Config{
		Params:          params,
		CKKSParams:      cparams,
		Variant:         hwsim.VariantHPS,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		Deadline:        *deadline,
		MaxBatch:        *maxBatch,
		KeyCacheSlots:   *keyCache,
		ExpvarName:      "engine",
		IntegrityChecks: *integrity,
		TenantQuota:     *tenantQuota,
	})
	if err != nil {
		fatal(err)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	// Register the seed-derived keys under the default tenant and every
	// -tenants namespace: in a cluster, each node holds every tenant's keys
	// (full replication), so a tenant's requests can fail over to any ring
	// replica. The secret key itself never leaves this key-derivation step;
	// the engine keeps only key-switching material.
	galois := make([]*fv.GaloisKey, 0, 3)
	for _, g := range []int{3, 9, 2*params.N() - 1} {
		galois = append(galois, kg.GenGaloisKey(sk, g))
	}
	for _, tenant := range append([]string{cloud.DefaultTenant}, tenantList(*tenants)...) {
		eng.SetRelinKey(tenant, rk)
		for _, gk := range galois {
			eng.SetGaloisKey(tenant, gk)
		}
		if crk != nil {
			eng.SetCKKSRelinKey(tenant, crk)
			for _, gk := range cgalois {
				eng.SetCKKSGaloisKey(tenant, gk)
			}
		}
	}

	srv := cloud.NewServer(params, eng, logger)
	srv.CKKSParams = cparams
	srv.ReadTimeout = *readTimeout
	srv.NodeID = *nodeID
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(eng.Stats()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Printf("heserver: debug endpoint on http://%s/debug/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				logger.Printf("heserver: debug endpoint: %v", err)
			}
		}()
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	if srv.NodeID == "" {
		srv.NodeID = bound
	}
	logger.Printf("heserver: %s listening on %s (n=%d, log q=%d, %d workers, queue %d, seed %d, ckks %v, tenants %v)",
		srv.NodeID, bound, params.N(), params.LogQ(), eng.Workers(), *queueDepth, *seed, cparams != nil, eng.Tenants())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGUSR1, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGUSR1 {
				dumpStats(logger, eng)
				continue
			}
			logger.Printf("heserver: %v — draining (budget %v)", sig, *drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := srv.Shutdown(ctx); err != nil {
				logger.Printf("heserver: connection drain: %v", err)
			}
			if err := eng.Shutdown(ctx); err != nil {
				logger.Printf("heserver: engine drain: %v", err)
			}
			cancel()
			return
		}
	}()

	if err := srv.Serve(); err != nil {
		fatal(err)
	}
	dumpStats(logger, eng)
	logger.Printf("heserver: served %d operations, goodbye", srv.Served())
}

func dumpStats(logger *log.Logger, eng *engine.Engine) {
	out, err := json.MarshalIndent(eng.Stats(), "", "  ")
	if err != nil {
		logger.Printf("heserver: stats: %v", err)
		return
	}
	fmt.Fprintf(os.Stderr, "heserver engine stats: %s\n", out)
}

// tenantList splits the -tenants flag, dropping empties.
func tenantList(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// usageError prints the problem plus usage and exits 2, the conventional
// bad-invocation status.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "heserver:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heserver:", err)
	os.Exit(1)
}
