// Command herouter fronts a fleet of heserver nodes with one endpoint: the
// scale-out tier above the paper's Fig. 11 platform. It serves the same wire
// protocol as heserver — checksummed mux sessions — and speaks it to every
// backend over one shared session per node. It shards tenants across the
// backends with a consistent-hash ring, health-checks every node (ejecting
// dead ones and rerouting their tenants to ring replicas), and retries
// idempotent requests on a replica within a bounded budget. CKKS commands are
// framed under the set heserver -ckks serves (-paper picks it, as it does
// there) and routed like the BFV ones; a backend started without -ckks
// refuses them with a typed application error.
//
// Usage:
//
//	heserver -addr :7101 -seed 42 &
//	heserver -addr :7102 -seed 42 &
//	herouter -addr :7100 -backends 127.0.0.1:7101,127.0.0.1:7102
//
// Backends may be given as "host:port" (the address doubles as the ring ID)
// or "id=host:port" when stable ring identities should survive address
// changes. All backends must share the parameter set and seed — evaluation
// keys are fully replicated, so any replica can serve any tenant.
//
// Membership is live through one control path, the -watch membership file,
// which only the router's own process reads: no wire command changes the
// ring, so no client can. Each change rebalances the ring with minimal
// movement, migrating the moved tenants' evaluation-key state to the new
// owners before the cutover so no request is dropped. See README "Rolling
// restarts".
//
// Observability: SIGUSR1 dumps the router snapshot (membership, per-backend
// health, retry/reroute counters, per-backend latency histograms) as JSON to
// stderr; the same dump is emitted on graceful shutdown. With -debug-addr
// set, /debug/vars (expvar, including the "cluster" snapshot) and
// /debug/stats are served over HTTP.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ckks"
	"repro/internal/cluster"
	"repro/internal/fv"
	"repro/internal/obs"
)

// The command's flags, at package level so that TestFlagSetGolden can list
// them without starting a router.
var (
	addr           = flag.String("addr", "127.0.0.1:7100", "listen address")
	backendsFlag   = flag.String("backends", "", "comma-separated backend list: host:port or id=host:port (required)")
	paper          = flag.Bool("paper", false, "use the paper parameter set (n = 4096) instead of the small test set")
	tmod           = flag.Uint64("t", 65537, "plaintext modulus (must match the backends)")
	replicas       = flag.Int("replicas", 2, "failover candidates per tenant on the ring")
	attempts       = flag.Int("attempts", 0, "retry budget per request (0 = replicas)")
	attemptTimeout = flag.Duration("attempt-timeout", 2*time.Second, "per-attempt deadline")
	probeInterval  = flag.Duration("probe-interval", 500*time.Millisecond, "health probe period per backend")
	probeTimeout   = flag.Duration("probe-timeout", time.Second, "health probe deadline")
	failThreshold  = flag.Int("fail-threshold", 2, "consecutive failures that eject a backend")
	watch          = flag.String("watch", "", "membership file to poll (same format as -backends, one entry per line); joins and leaves are applied live with key-state migration")
	watchInterval  = flag.Duration("watch-interval", 2*time.Second, "poll period for -watch")
	nodeID         = flag.String("node-id", "herouter", "node name advertised in info replies")
	readTimeout    = flag.Duration("read-timeout", 2*time.Minute, "per-request read deadline on client connections")
	drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight work")
	debugAddr      = flag.String("debug-addr", "", "listen address for the HTTP debug endpoint; empty disables it")
)

func main() {
	flag.Parse()

	backends, err := parseBackends(*backendsFlag)
	if err != nil {
		usageError(err)
	}
	switch {
	case strings.TrimSpace(*addr) == "":
		usageError(fmt.Errorf("-addr must not be empty"))
	case *replicas <= 0:
		usageError(fmt.Errorf("-replicas must be positive, got %d", *replicas))
	case *attempts < 0:
		usageError(fmt.Errorf("-attempts must be >= 0, got %d", *attempts))
	case *attemptTimeout <= 0:
		usageError(fmt.Errorf("-attempt-timeout must be positive, got %v", *attemptTimeout))
	case *probeInterval <= 0:
		usageError(fmt.Errorf("-probe-interval must be positive, got %v", *probeInterval))
	case *probeTimeout <= 0:
		usageError(fmt.Errorf("-probe-timeout must be positive, got %v", *probeTimeout))
	case *failThreshold <= 0:
		usageError(fmt.Errorf("-fail-threshold must be positive, got %d", *failThreshold))
	case *readTimeout <= 0:
		usageError(fmt.Errorf("-read-timeout must be positive, got %v", *readTimeout))
	case *drainTimeout <= 0:
		usageError(fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout))
	case *watchInterval <= 0:
		usageError(fmt.Errorf("-watch-interval must be positive, got %v", *watchInterval))
	}

	cfg, ccfg := fv.TestConfig(*tmod), ckks.TestConfig()
	if *paper {
		cfg, ccfg = fv.PaperConfig(*tmod), ckks.PaperConfig()
	}
	params, err := fv.NewParams(cfg)
	if err != nil {
		fatal(err)
	}
	// The CKKS set heserver -ckks serves: the router frames CKKS commands
	// under it, and a backend without CKKS refuses them.
	cparams, err := ckks.NewParams(ccfg)
	if err != nil {
		fatal(err)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	router, err := cluster.NewRouter(cluster.Config{
		Params:         params,
		Backends:       backends,
		Replicas:       *replicas,
		MaxAttempts:    *attempts,
		AttemptTimeout: *attemptTimeout,
		Health: cluster.HealthConfig{
			Interval:      *probeInterval,
			Timeout:       *probeTimeout,
			FailThreshold: *failThreshold,
		},
		Logger: logger,
	})
	if err != nil {
		fatal(err)
	}
	binding := obs.PublishExpvar("cluster", func() any { return router.Stats() })
	defer binding.Unpublish()

	if *watch != "" {
		watchCtx, watchCancel := context.WithCancel(context.Background())
		defer watchCancel()
		go router.WatchMembership(watchCtx, func() (map[string]string, error) {
			return loadMembershipFile(*watch)
		}, *watchInterval)
		logger.Printf("herouter: watching membership file %s every %v", *watch, *watchInterval)
	}

	srv := cluster.NewServer(params, router, logger)
	srv.CKKSParams = cparams
	srv.NodeID = *nodeID
	srv.ReadTimeout = *readTimeout

	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(router.Stats()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() {
			logger.Printf("herouter: debug endpoint on http://%s/debug/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				logger.Printf("herouter: debug endpoint: %v", err)
			}
		}()
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	logger.Printf("herouter: listening on %s in front of %d backend(s), %d replica(s) per tenant",
		bound, len(backends), *replicas)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGUSR1, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGUSR1 {
				dumpStats(logger, router)
				continue
			}
			logger.Printf("herouter: %v — draining (budget %v)", sig, *drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := srv.Shutdown(ctx); err != nil {
				logger.Printf("herouter: drain: %v", err)
			}
			cancel()
			return
		}
	}()

	if err := srv.Serve(); err != nil {
		fatal(err)
	}
	router.Close()
	dumpStats(logger, router)
	logger.Printf("herouter: routed %d operations, goodbye", srv.Served())
}

// parseBackends decodes the -backends list: "host:port" entries use the
// address as the ring ID, "id=host:port" entries pin one explicitly.
func parseBackends(list string) ([]cluster.Backend, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("-backends is required (comma-separated host:port or id=host:port)")
	}
	var out []cluster.Backend
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		b := cluster.Backend{ID: entry, Addr: entry}
		if id, addr, ok := strings.Cut(entry, "="); ok {
			b.ID, b.Addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		}
		if b.ID == "" || b.Addr == "" {
			return nil, fmt.Errorf("bad backend entry %q", entry)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-backends is required (comma-separated host:port or id=host:port)")
	}
	return out, nil
}

// loadMembershipFile reads a -watch file: -backends syntax, one entry per
// line (blank lines and # comments skipped), returned as id -> addr.
func loadMembershipFile(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	if len(entries) == 0 {
		return map[string]string{}, nil
	}
	backends, err := parseBackends(strings.Join(entries, ","))
	if err != nil {
		return nil, err
	}
	want := make(map[string]string, len(backends))
	for _, b := range backends {
		want[b.ID] = b.Addr
	}
	return want, nil
}

func dumpStats(logger *log.Logger, router *cluster.Router) {
	out, err := json.MarshalIndent(router.Stats(), "", "  ")
	if err != nil {
		logger.Printf("herouter: stats: %v", err)
		return
	}
	fmt.Fprintf(os.Stderr, "herouter cluster stats: %s\n", out)
}

// usageError prints the problem plus usage and exits 2, the conventional
// bad-invocation status.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "herouter:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "herouter:", err)
	os.Exit(1)
}
