package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
)

// keyID identifies one evaluation key, in the store and in a worker's
// resident-key cache alike. need is part of the identity, so no Galois
// element a request can name — Op.G arrives unchecked off the wire — ever
// resolves to a relinearization key; g is the Galois element, 0 for the
// relinearization key.
type keyID struct {
	tenant string
	scheme scheme
	need   keyNeed
	g      int
}

func relinID(tenant string, s scheme) keyID { return keyID{tenant, s, keyRelin, 0} }

func galoisID(tenant string, s scheme, g int) keyID { return keyID{tenant, s, keyGalois, g} }

func (id keyID) String() string {
	prefix := ""
	if id.scheme == schemeCKKS {
		prefix = "CKKS "
	}
	if id.need == keyRelin {
		return fmt.Sprintf("%srelinearization key for tenant %q", prefix, id.tenant)
	}
	return fmt.Sprintf("%sGalois key for element %d, tenant %q", prefix, id.g, id.tenant)
}

// evalKey is a registered key — a *fv.RelinKey, *fv.GaloisKey,
// *ckks.RelinKey or *ckks.GaloisKey, as its keyID says — and the size of the
// DMA stream that makes it resident on a co-processor, computed once at
// registration.
type evalKey struct {
	key   any
	bytes int
}

// relinKeyBytes returns the DMA transfer size of a relinearization key: two
// polynomial vectors of ell components, each a full R_q polynomial of 32-bit
// residue words. For the paper set (ell = 6) that is 2·6·98,304 ≈ 1.2 MB —
// which is why the paper streams the key during Mult instead of re-sending
// operand-style, and why a serving layer wants it cached.
func relinKeyBytes(params *fv.Params, rk *fv.RelinKey) int {
	return 2 * len(rk.Rlk0Hat) * hwsim.PolyBytes(params.N(), params.QBasis.K())
}

// galoisKeyBytes returns the DMA transfer size of a Galois key-switching
// key (same gadget shape as the relin key).
func galoisKeyBytes(params *fv.Params, gk *fv.GaloisKey) int {
	return 2 * len(gk.Ks0Hat) * hwsim.PolyBytes(params.N(), params.QBasis.K())
}

// ckksKeyBytes returns the DMA transfer size of a CKKS evaluation key
// (relinearization or Galois), the one top-level key a key load streams: two
// polynomial vectors of L+1 gadget digits, each an extended-row (chain + p*)
// polynomial. Every level reads row views of it.
func ckksKeyBytes(p *ckks.Params) int {
	return 2 * (p.MaxLevel() + 1) * hwsim.PolyBytes(p.N(), p.MaxLevel()+2)
}

// keyEntry is one registration: a key under its identity.
type keyEntry struct {
	id  keyID
	key evalKey
}

// keyStore is the authoritative registry of tenant evaluation keys, both
// schemes in one namespace per tenant. Keys are kept exactly as generated —
// in NTT form — which is the representation the co-processor consumes; there
// is no per-use transform.
type keyStore struct {
	mu   sync.RWMutex
	keys map[string]map[keyID]evalKey // by tenant
}

func newKeyStore() *keyStore {
	return &keyStore{keys: make(map[string]map[keyID]evalKey)}
}

// set registers the entries under one lock: a batch dispatched meanwhile
// sees all of a migrated key set or none of it.
func (s *keyStore) set(entries ...keyEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		t := s.keys[e.id.tenant]
		if t == nil {
			t = make(map[keyID]evalKey)
			s.keys[e.id.tenant] = t
		}
		t[e.id] = e.key
	}
}

func (s *keyStore) get(id keyID) (evalKey, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	k, ok := s.keys[id.tenant][id]
	return k, ok
}

// TenantKeySet is one tenant's complete evaluation-key state, both schemes
// — the unit key-state migration moves between nodes. Galois keys are
// ordered by element so serialization is deterministic.
type TenantKeySet struct {
	Relin      *fv.RelinKey
	Galois     []*fv.GaloisKey
	CKKSRelin  *ckks.RelinKey
	CKKSGalois []*ckks.GaloisKey
}

// Empty reports whether the set carries no keys at all.
func (ks *TenantKeySet) Empty() bool {
	return ks == nil || (ks.Relin == nil && len(ks.Galois) == 0 &&
		ks.CKKSRelin == nil && len(ks.CKKSGalois) == 0)
}

// Count returns how many individual keys the set carries.
func (ks *TenantKeySet) Count() int {
	if ks == nil {
		return 0
	}
	n := len(ks.Galois) + len(ks.CKKSGalois)
	if ks.Relin != nil {
		n++
	}
	if ks.CKKSRelin != nil {
		n++
	}
	return n
}

// export snapshots the tenant's keys, nil if the tenant has none. The key
// objects themselves are shared, not copied: they are immutable after
// registration.
func (s *keyStore) export(tenant string) *TenantKeySet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.keys[tenant]) == 0 {
		return nil
	}
	ks := &TenantKeySet{}
	for _, k := range s.keys[tenant] {
		switch key := k.key.(type) {
		case *fv.RelinKey:
			ks.Relin = key
		case *fv.GaloisKey:
			ks.Galois = append(ks.Galois, key)
		case *ckks.RelinKey:
			ks.CKKSRelin = key
		case *ckks.GaloisKey:
			ks.CKKSGalois = append(ks.CKKSGalois, key)
		}
	}
	sort.Slice(ks.Galois, func(i, j int) bool { return ks.Galois[i].G < ks.Galois[j].G })
	sort.Slice(ks.CKKSGalois, func(i, j int) bool { return ks.CKKSGalois[i].G < ks.CKKSGalois[j].G })
	return ks
}

// names returns the tenant namespaces with a registered key, sorted.
func (s *keyStore) names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.keys))
	for tenant := range s.keys {
		out = append(out, tenant)
	}
	sort.Strings(out)
	return out
}

// keyCache models the co-processor's on-chip key residency: the paper
// streams the relinearization key from DDR during every Mult (Sec. V-D,
// "the DMA feeds the relinearization key components while the RPAUs
// compute"); a key already resident skips that stream. The cache is LRU
// over whole keys and is owned by exactly one worker goroutine, so it
// needs no locking.
type keyCache struct {
	cap   int
	order []keyID // front = least recently used
}

func newKeyCache(capacity int) *keyCache {
	return &keyCache{cap: capacity}
}

// touch marks id as used. It reports whether the key was already resident;
// on a miss the least recently used key is evicted if the cache is full,
// with the victim's identity returned so the caller can attribute the
// eviction to its tenant.
func (c *keyCache) touch(id keyID) (hit bool, victim keyID, evicted bool) {
	for i, k := range c.order {
		if k == id {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), id)
			return true, keyID{}, false
		}
	}
	if len(c.order) >= c.cap {
		victim = c.order[0]
		c.order = c.order[1:]
		evicted = true
	}
	c.order = append(c.order, id)
	return false, victim, evicted
}

// len reports how many keys are resident.
func (c *keyCache) len() int { return len(c.order) }
