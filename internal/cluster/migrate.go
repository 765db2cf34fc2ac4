package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cloud"
)

// ErrLastNode refuses a Leave that would empty the ring.
var ErrLastNode = errors.New("cluster: refusing to remove the last ring member")

const (
	// migrationTimeout bounds one membership change end to end — planning,
	// key transfers, and cutover.
	migrationTimeout = 15 * time.Second
	// drainTimeout bounds how long a cutover waits for the moved tenants'
	// in-flight requests before flipping anyway. Flipping with stragglers in
	// flight is safe — key state is transferred before the flip and never
	// removed from the old owners — so it only bounds gate latency, not
	// correctness.
	drainTimeout = 2 * time.Second
)

// MigrationReport summarizes one membership change: how many tenants were
// rebalanced onto different nodes and how many evaluation keys moved with
// them before the cutover.
type MigrationReport struct {
	Node    string   `json:"node"`
	Moved   []string `json:"moved,omitempty"` // tenants whose placement changed
	Tenants int      `json:"tenants"`
	Keys    int      `json:"keys"`
}

// SetMigrationHook installs a test hook called at each stage boundary of a
// membership change: "plan", "hold", "drain", "transfer" (with the tenant),
// "flip", "release". Chaos tests use it to kill nodes at pinned stages. The
// hook must not call back into Join/Leave.
func (r *Router) SetMigrationHook(h func(stage, tenant string)) {
	r.hookMu.Lock()
	r.migrateHook = h
	r.hookMu.Unlock()
}

func (r *Router) hook(stage, tenant string) {
	r.hookMu.Lock()
	h := r.migrateHook
	r.hookMu.Unlock()
	if h != nil {
		h(stage, tenant)
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf(format, args...)
	}
}

// member reports whether id is currently in the ring.
func (r *Router) member(id string) bool {
	for _, m := range r.ring.Members() {
		if m == id {
			return true
		}
	}
	return false
}

// scratchRing clones the live membership into a throwaway ring so the
// post-change placement can be computed before the flip.
func (r *Router) scratchRing(add, remove string) *Ring {
	next := NewRing(DefaultVirtualNodes)
	for _, m := range r.ring.Members() {
		if m != remove {
			next.Add(m)
		}
	}
	if add != "" {
		next.Add(add)
	}
	return next
}

// knownTenants unions the tenant namespaces (those with registered
// evaluation keys) reported by every live ring member. Nodes that cannot be
// reached are skipped: migration plans over the best information available.
func (r *Router) knownTenants(ctx context.Context) []string {
	seen := make(map[string]struct{})
	for _, id := range r.ring.Members() {
		addr := r.addr(id)
		if addr == "" {
			continue
		}
		cl, err := cloud.Dial(addr, r.cfg.Params)
		if err != nil {
			continue
		}
		ictx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		info, err := cl.Info(ictx)
		cancel()
		cl.Close()
		if err != nil {
			continue
		}
		for _, t := range info.Tenants {
			seen[t] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// transferTenant copies one tenant's evaluation-key state to dest, trying
// each source in order. A source that answers "no keys" is authoritative
// for itself but not for the set; only when no source yields a blob and
// none failed at the transport level is the tenant considered keyless
// (nothing to move). Returns the number of keys installed on dest.
func (r *Router) transferTenant(ctx context.Context, tenant string, sources []string, dest string) (int, error) {
	destAddr := r.addr(dest)
	if destAddr == "" {
		return 0, fmt.Errorf("cluster: transfer %q: unknown destination %s", tenant, dest)
	}
	var lastErr error
	for _, src := range sources {
		if src == dest {
			continue
		}
		addr := r.addr(src)
		if addr == "" {
			continue
		}
		cl, err := cloud.Dial(addr, r.cfg.Params)
		if err != nil {
			lastErr = err
			continue
		}
		blob, err := cl.KeyExport(ctx, tenant)
		cl.Close()
		if err != nil {
			var se *cloud.ServerError
			if !errors.As(err, &se) {
				// Transport failure; a ServerError means the source answered
				// authoritatively that it holds no keys for this tenant.
				lastErr = err
			}
			continue
		}
		dcl, err := cloud.Dial(destAddr, r.cfg.Params)
		if err != nil {
			return 0, fmt.Errorf("cluster: transfer %q to %s: %w", tenant, dest, err)
		}
		ack, err := dcl.KeyImport(ctx, tenant, blob)
		dcl.Close()
		if err != nil {
			return 0, fmt.Errorf("cluster: transfer %q to %s: %w", tenant, dest, err)
		}
		return ack.Keys, nil
	}
	if lastErr != nil {
		return 0, fmt.Errorf("cluster: transfer %q: no source produced keys: %w", tenant, lastErr)
	}
	// Every reachable source answered keyless: nothing to move.
	return 0, nil
}

// move is one tenant's part of a membership change: the nodes its key state
// is copied from (tried in order) and the nodes that must hold it before the
// ring flips.
type move struct {
	tenant string
	srcs   []string
	dests  []string
}

// cutover is the one membership-change sequence, zero-drop by construction:
// plan -> hold -> drain -> transfer -> flip -> release. The tenants whose
// placement changes are gated, their in-flight requests drained, their
// evaluation-key state copied to the nodes taking them over, and only then
// does the ring flip. what and node name the change in errors and logs; plan
// maps a known tenant to its move (false when the change leaves the tenant's
// placement alone); flip swings the ring. Any failure before the flip aborts
// cleanly — routing and key placement are untouched. The caller holds
// adminMu.
func (r *Router) cutover(ctx context.Context, what, node string,
	plan func(tenant string) (move, bool), flip func()) (*MigrationReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mctx, cancel := context.WithTimeout(ctx, migrationTimeout)
	defer cancel()

	r.hook("plan", "")
	var (
		moves []move
		moved []string
	)
	for _, t := range r.knownTenants(mctx) {
		if m, ok := plan(t); ok {
			moves = append(moves, m)
			moved = append(moved, t)
		}
	}

	report := &MigrationReport{Node: node, Moved: moved, Tenants: len(moved)}
	r.gates.hold(moved)
	defer r.gates.release(moved) // on abort; a no-op after the release below
	r.hook("hold", "")

	dctx, dcancel := context.WithTimeout(mctx, drainTimeout)
	if err := r.gates.drain(dctx, moved); err != nil {
		// Safe to proceed: key state is copied, never moved, so stragglers
		// finish correctly against the old owners.
		r.logf("cluster: %s %s: drain timed out, proceeding: %v", what, node, err)
	}
	dcancel()
	r.hook("drain", "")

	for _, m := range moves {
		r.hook("transfer", m.tenant)
		for _, dest := range m.dests {
			keys, err := r.transferTenant(mctx, m.tenant, m.srcs, dest)
			if err != nil {
				r.reg.Counter("cluster_migration_failures").Add(1)
				return nil, fmt.Errorf("cluster: %s %s aborted before cutover: %w", what, node, err)
			}
			report.Keys += keys
		}
	}
	r.reg.Counter("cluster_migrated_tenants").Add(uint64(len(moved)))
	r.reg.Counter("cluster_migrated_keys").Add(uint64(report.Keys))

	flip()
	r.hook("flip", "")
	r.gates.release(moved)
	r.hook("release", "")
	return report, nil
}

// Join adds a node to the fleet: the node is probed at b.Addr, the tenants
// the ring will rebalance onto it get their key state copied over first, and
// only then does the ring flip (see cutover). Idempotent for a node already
// in the ring.
func (r *Router) Join(ctx context.Context, b Backend) (*MigrationReport, error) {
	if b.ID == "" || b.Addr == "" {
		return nil, fmt.Errorf("cluster: join needs ID and Addr, got %+v", b)
	}
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	if r.member(b.ID) {
		return &MigrationReport{Node: b.ID}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// A node outside the ring is unknown to the router (Leave forgets it),
	// so its transport and health state start fresh at b.Addr.
	r.mu.Lock()
	r.addrs[b.ID] = b.Addr
	r.pools[b.ID] = r.newPoolFor(b)
	r.mu.Unlock()
	r.health.add(b.ID)

	// Never cut traffic over to a node that does not answer.
	pctx, pcancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	err := r.probe(pctx, b.ID)
	pcancel()
	if err != nil {
		r.forget(b.ID)
		r.reg.Counter("cluster_migration_failures").Add(1)
		return nil, fmt.Errorf("cluster: join %s: probe failed: %w", b.ID, err)
	}

	next := r.scratchRing(b.ID, "")
	members := r.ring.Members()
	report, err := r.cutover(ctx, "join", b.ID, func(t string) (move, bool) {
		if !contains(next.Lookup(t, r.cfg.Replicas), b.ID) {
			return move{}, false
		}
		// The tenant's current owners first, then anyone who might hold it.
		srcs := append(r.ring.Lookup(t, r.cfg.Replicas), members...)
		return move{tenant: t, srcs: srcs, dests: []string{b.ID}}, true
	}, func() { r.ring.Add(b.ID) })
	if err != nil {
		r.forget(b.ID)
		return nil, err
	}
	r.reg.Counter("cluster_joins").Add(1)
	r.logf("cluster: node %s joined (%d tenants, %d keys migrated)", b.ID, report.Tenants, report.Keys)
	return report, nil
}

// Leave removes a node with zero-drop cutover: tenants losing a replica get
// their key state copied to the nodes taking over (sourced from the leaver
// when it still answers, its replica peers when it does not), then the ring
// flips and the node's transport and health state are torn down. A rolling
// restart is Leave, restart, Join — at the same address or a new one.
func (r *Router) Leave(ctx context.Context, id string) (*MigrationReport, error) {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	if !r.member(id) {
		return nil, fmt.Errorf("cluster: %s is not a ring member", id)
	}
	if r.ring.Size() <= 1 {
		return nil, ErrLastNode
	}

	next := r.scratchRing("", id)
	report, err := r.cutover(ctx, "leave", id, func(t string) (move, bool) {
		old := r.ring.Lookup(t, r.cfg.Replicas)
		if !contains(old, id) {
			return move{}, false
		}
		// Prefer the leaver as the source — it certainly served this tenant
		// — and fall back to the surviving replica peers when it is already
		// dead (the crash-during-rolling-restart case).
		m := move{tenant: t, srcs: append([]string{id}, old...)}
		for _, n := range next.Lookup(t, r.cfg.Replicas) {
			if !contains(old, n) {
				m.dests = append(m.dests, n)
			}
		}
		return m, true
	}, func() { r.ring.Remove(id) })
	if err != nil {
		return nil, err
	}
	r.forget(id)
	r.reg.Counter("cluster_leaves").Add(1)
	r.logf("cluster: node %s retired (%d tenants, %d keys migrated)", id, report.Tenants, report.Keys)
	return report, nil
}

// forget tears down a node's transport and health state. The node must be
// out of the ring.
func (r *Router) forget(id string) {
	r.health.remove(id)
	r.mu.Lock()
	p := r.pools[id]
	delete(r.pools, id)
	delete(r.addrs, id)
	r.mu.Unlock()
	if p != nil {
		p.close()
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// WatchMembership polls load from a membership file (one "id=addr" per
// line, # comments) and applies the diff against the live ring as
// join/leave calls: an ID that appears joins, an ID that disappears leaves,
// and an ID whose address changed leaves and joins again at the new one —
// a rolling restart. It is how membership changes from outside the router's
// process: orchestrators manage fleets by writing config. It blocks until
// ctx ends; per-change errors are logged and retried on the next poll.
func (r *Router) WatchMembership(ctx context.Context, load func() (map[string]string, error), interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		want, err := load()
		if err != nil {
			r.logf("cluster: membership watch: %v", err)
			continue
		}
		if len(want) == 0 {
			continue // refuse to interpret an empty file as "remove everything"
		}
		for id, addr := range want {
			if r.member(id) && r.addr(id) != addr {
				if _, err := r.Leave(ctx, id); err != nil {
					r.logf("cluster: membership watch: move %s to %s: %v", id, addr, err)
					continue
				}
			}
			if !r.member(id) {
				if _, err := r.Join(ctx, Backend{ID: id, Addr: addr}); err != nil {
					r.logf("cluster: membership watch: join %s: %v", id, err)
				}
			}
		}
		for _, id := range r.ring.Members() {
			if _, ok := want[id]; !ok {
				if _, err := r.Leave(ctx, id); err != nil {
					r.logf("cluster: membership watch: leave %s: %v", id, err)
				}
			}
		}
	}
}
