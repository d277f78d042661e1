package serve

import (
	"errors"
	"sort"
	"time"
)

// ErrQuotaShed marks a query rejected because its tenant's token bucket
// was empty. It wraps ErrShed: callers that only distinguish "shed vs
// executed" keep working, callers that care can errors.Is against this.
var ErrQuotaShed = errors.New("serve: tenant admission quota exhausted")

// QuotaConfig configures fair per-tenant admission. Each tenant gets a
// token bucket refilled at RatePerSec / (tenants seen so far), so a hot
// tenant drains only its own bucket and sheds against its own budget
// instead of filling the shared queue and starving everyone. The empty
// tenant ID (untagged queries) is a tenant like any other. The zero value
// disables quotas entirely.
type QuotaConfig struct {
	// RatePerSec is the aggregate admission rate in queries per second,
	// shared equally across active tenants. Zero disables quotas.
	RatePerSec float64
	// Burst is every tenant's bucket capacity. Zero means 8.
	Burst float64
}

// TenantStats is one tenant's admission ledger. Submitted always equals
// Served + Shed + Failed once the tenant's queries have resolved.
type TenantStats struct {
	Tenant    string
	Submitted int
	Served    int
	Shed      int
	Failed    int
}

type tenantBucket struct {
	tokens float64
	stats  TenantStats
}

// quotas is the fair token-bucket admission gate. All methods are called
// under Server.mu; the injectable clock keeps tests deterministic.
type quotas struct {
	cfg     QuotaConfig
	now     func() time.Time
	last    time.Time
	buckets map[string]*tenantBucket
}

func newQuotas(cfg QuotaConfig, now func() time.Time) *quotas {
	if cfg.RatePerSec <= 0 {
		return nil
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 8
	}
	if now == nil {
		now = time.Now
	}
	return &quotas{cfg: cfg, now: now, last: now(), buckets: map[string]*tenantBucket{}}
}

// bucket returns the tenant's bucket, creating it full on first sight.
// A new tenant dilutes every later refill, which is the fair part: shares
// rebalance as the active set changes.
func (q *quotas) bucket(tenant string) *tenantBucket {
	b, ok := q.buckets[tenant]
	if !ok {
		b = &tenantBucket{tokens: q.cfg.Burst, stats: TenantStats{Tenant: tenant}}
		q.buckets[tenant] = b
	}
	return b
}

// refill credits every bucket for the time elapsed since the last call.
func (q *quotas) refill() {
	now := q.now()
	dt := now.Sub(q.last).Seconds()
	q.last = now
	if dt <= 0 || len(q.buckets) == 0 {
		return
	}
	share := dt * q.cfg.RatePerSec / float64(len(q.buckets))
	for _, b := range q.buckets {
		b.tokens = min(b.tokens+share, q.cfg.Burst)
	}
}

// admit takes one token from the tenant's bucket, reporting false (a
// quota shed) when it is empty.
func (q *quotas) admit(tenant string) bool {
	q.refill()
	b := q.bucket(tenant)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tenant returns the Server-side stats record for the tenant, tracked
// whether or not quotas gate admission (tstats covers the no-quota case).
func (s *Server) tenant(id string) *TenantStats {
	t, ok := s.tstats[id]
	if !ok {
		t = &TenantStats{Tenant: id}
		s.tstats[id] = t
	}
	return t
}

// TenantStats returns a snapshot of every tenant's admission ledger,
// sorted by tenant ID.
func (s *Server) TenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.tstats))
	for _, t := range s.tstats {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
