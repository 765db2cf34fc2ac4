package cluster

import (
	"context"
	"time"

	"repro/internal/cloud"
	"repro/internal/fv"
	"repro/internal/program"
)

// Client is the cluster-aware client: the same operations as cloud.Client,
// but routed — each call names a tenant, the consistent-hash ring picks that
// tenant's shard, and failures transparently fail over to replicas within
// the bounded retry budget. Safe for concurrent use (one shared session per
// backend).
type Client struct {
	r *Router
}

// NewClient builds a router over the configured backends and wraps it.
func NewClient(cfg Config) (*Client, error) {
	r, err := NewRouter(cfg)
	if err != nil {
		return nil, err
	}
	return &Client{r: r}, nil
}

// Router exposes the underlying router (stats, candidate inspection).
func (c *Client) Router() *Router { return c.r }

// Close stops health probing and drops the backend sessions.
func (c *Client) Close() error { return c.r.Close() }

// as is the typed operation set (written once, in cloud) routed under tenant.
func (c *Client) as(tenant string) cloud.Ops { return cloud.Ops{Via: c.r, Tenant: tenant} }

// Add adds two ciphertexts on the tenant's shard.
func (c *Client) Add(ctx context.Context, tenant string, a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	return c.as(tenant).AddCtx(ctx, a, b)
}

// Mul multiplies two ciphertexts on the tenant's shard (relinearized with
// the tenant's key, which must be registered on the shard's replicas).
func (c *Client) Mul(ctx context.Context, tenant string, a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	return c.as(tenant).MulCtx(ctx, a, b)
}

// Rotate applies the Galois automorphism g on the tenant's shard.
func (c *Client) Rotate(ctx context.Context, tenant string, a *fv.Ciphertext, g int) (*fv.Ciphertext, time.Duration, error) {
	return c.as(tenant).RotateCtx(ctx, a, g)
}

// RunProgram executes a whole compiled program on the tenant's shard: one
// routed round trip for the entire circuit, with the same replica failover
// as single ops (a program is idempotent — pure function of its inputs).
func (c *Client) RunProgram(ctx context.Context, tenant string, p *program.Program, inputs []*fv.Ciphertext) (*cloud.ProgramResponse, error) {
	return c.as(tenant).RunProgram(ctx, p, inputs)
}

// Ping verifies at least one backend is routable and alive.
func (c *Client) Ping(ctx context.Context) error { return c.r.Ping(ctx) }

// Stats snapshots the cluster (membership, health, counters).
func (c *Client) Stats() RouterStats { return c.r.Stats() }
