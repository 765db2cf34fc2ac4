package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
)

// The serving stack is booted with the heserver / herouter flag defaults, so
// the numbers are those of the commands as shipped.
const (
	queueDepth    = 64 // heserver -queue-depth
	maxBatch      = 8  // heserver -batch
	keyCacheSlots = 8  // heserver -keycache
	routerReplica = 2  // herouter -replicas
	routerPool    = 4  // herouter -pool
)

const shutdownBudget = 10 * time.Second

// node is one in-process heserver: an engine behind a cloud.Server on a
// loopback port.
type node struct {
	id   string
	eng  *engine.Engine
	srv  *cloud.Server
	addr string
	done chan error // Serve's return
}

// startNode boots a node the way cmd/heserver does. cparams, when non-nil,
// adds the CKKS lane.
func startNode(id string, params *fv.Params, cparams *ckks.Params, workers int) (*node, error) {
	eng, err := engine.New(engine.Config{
		Params:        params,
		CKKSParams:    cparams,
		Variant:       hwsim.VariantHPS,
		Workers:       workers,
		QueueDepth:    queueDepth,
		MaxBatch:      maxBatch,
		KeyCacheSlots: keyCacheSlots,
	})
	if err != nil {
		return nil, fmt.Errorf("node %s: engine: %w", id, err)
	}
	srv := cloud.NewServer(params, eng, nil)
	srv.CKKSParams = cparams
	srv.NodeID = id
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
		_ = eng.Shutdown(ctx) // nothing was admitted; the listen error is what matters
		cancel()
		return nil, fmt.Errorf("node %s: listen: %w", id, err)
	}
	n := &node{id: id, eng: eng, srv: srv, addr: addr, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve() }()
	return n, nil
}

// stop drains the node and waits until its accept loop and workers are gone.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; err == nil {
		err = serr
	}
	if eerr := n.eng.Shutdown(ctx); err == nil {
		err = eerr
	}
	return err
}

// routerTier is one in-process herouter in front of nodes.
type routerTier struct {
	router *cluster.Router
	srv    *cluster.Server
	addr   string
	done   chan error
}

// startRouter boots the routing tier the way cmd/herouter does; mux selects
// the shared-connection backend transport (herouter -mux).
func startRouter(params *fv.Params, nodes []*node, mux bool) (*routerTier, error) {
	backends := make([]cluster.Backend, len(nodes))
	for i, n := range nodes {
		backends[i] = cluster.Backend{ID: n.id, Addr: n.addr}
	}
	r, err := cluster.NewRouter(cluster.Config{
		Params:   params,
		Backends: backends,
		Replicas: routerReplica,
		PoolSize: routerPool,
		Mux:      mux,
	})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	srv := cluster.NewServer(params, r, nil)
	srv.NodeID = "herouter"
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("router: listen: %w", err)
	}
	t := &routerTier{router: r, srv: srv, addr: addr, done: make(chan error, 1)}
	go func() { t.done <- srv.Serve() }()
	return t, nil
}

func (t *routerTier) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.done; err == nil {
		err = serr
	}
	if cerr := t.router.Close(); err == nil {
		err = cerr
	}
	return err
}
