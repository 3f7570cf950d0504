package simserver

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"taskalloc/internal/obs"
	"taskalloc/internal/wire"
)

// Tenant layer: bearer-token auth with per-tenant job quotas and
// token-bucket rate limits, layered on the existing admission bounds.
// It is opt-in — with no Options.Tenants the server stays open, so
// every existing client and test sees the unauthenticated surface
// unchanged. GET /v1/healthz, /v1/version, and /v1/metrics stay open
// even with tenants configured (probes and scrapes don't carry work).
//
// Rejections speak wire.ErrorBody (Kind "unauthorized" | "quota" |
// "rate_limited") so clients can branch without parsing prose; the
// client package surfaces them as typed errors.

// TenantConfig declares one tenant: its bearer token, a cumulative job
// quota, and a token-bucket rate limit over requests.
type TenantConfig struct {
	// Name labels the tenant's /v1/metrics series (never the token).
	Name string `json:"name"`
	// Token is the bearer token (compared constant-time).
	Token string `json:"token"`
	// MaxJobs caps the tenant's cumulative submitted jobs across the
	// server's lifetime: a sweep is charged its job count, and a bisect
	// its evaluation budget (max_evals, or wire.MaxBisectEvals for 0),
	// both at admission, cached or not; <= 0 means unlimited. Only an
	// admitted document is charged: one that admission rejects, a config
	// that does not decode included, costs nothing.
	MaxJobs int64 `json:"max_jobs,omitempty"`
	// RatePerSec refills the tenant's request bucket; <= 0 means no
	// rate limit.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity; <= 0 means max(1, RatePerSec).
	Burst int `json:"burst,omitempty"`
}

// tenant is one tenant's live state: its config, token bucket, and
// counters. The bucket uses the server's clock (injectable in tests).
// The disposition counters are obs children cached at construction,
// exported by tenant name on /v1/metrics.
type tenant struct {
	cfg TenantConfig

	mRequests      *obs.Counter
	mRateLimited   *obs.Counter
	mQuotaRejected *obs.Counter
	mJobs          *obs.Counter

	mu     sync.Mutex
	tokens float64 // current bucket level
	last   time.Time
	jobs   int64 // cumulative jobs, for the quota
}

// authState is the tenant registry, scanned (constant-time per token)
// for authentication.
type authState struct {
	tenants []*tenant
}

func newAuthState(cfgs []TenantConfig, m *serverMetrics) *authState {
	a := &authState{}
	for _, cfg := range cfgs {
		burst := cfg.Burst
		if burst <= 0 {
			burst = int(math.Max(1, cfg.RatePerSec))
		}
		cfg.Burst = burst
		// last stays zero: the first admit sees a huge elapsed time and
		// clamps the bucket to its (already full) burst capacity.
		a.tenants = append(a.tenants, &tenant{
			cfg:            cfg,
			tokens:         float64(burst),
			mRequests:      m.tenantRequests.With(cfg.Name),
			mRateLimited:   m.tenantRateLimited.With(cfg.Name),
			mQuotaRejected: m.tenantQuotaRejected.With(cfg.Name),
			mJobs:          m.tenantJobs.With(cfg.Name),
		})
	}
	return a
}

// authenticate resolves the request's bearer token to a tenant. Every
// configured token is compared constant-time, so timing cannot narrow
// a token search even across tenants.
func (a *authState) authenticate(r *http.Request) *tenant {
	raw := r.Header.Get("Authorization")
	bearer, ok := strings.CutPrefix(raw, "Bearer ")
	if !ok {
		return nil
	}
	var found *tenant
	for _, t := range a.tenants {
		if subtle.ConstantTimeCompare([]byte(bearer), []byte(t.cfg.Token)) == 1 {
			found = t
		}
	}
	return found
}

// admit takes one request token from the tenant's bucket. When the
// bucket is empty it returns false and the wait until the next token.
func (t *tenant) admit(now time.Time) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.RatePerSec <= 0 {
		t.mRequests.Inc()
		return true, 0
	}
	elapsed := now.Sub(t.last).Seconds()
	if elapsed > 0 {
		t.tokens = math.Min(float64(t.cfg.Burst), t.tokens+elapsed*t.cfg.RatePerSec)
		t.last = now
	}
	if t.tokens < 1 {
		t.mRateLimited.Inc()
		wait := time.Duration((1 - t.tokens) / t.cfg.RatePerSec * float64(time.Second))
		return false, wait
	}
	t.tokens--
	t.mRequests.Inc()
	return true, 0
}

// chargeJobs charges n jobs against the tenant's quota; false
// (and no charge) when the quota would be exceeded.
func (t *tenant) chargeJobs(n int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxJobs > 0 && t.jobs+int64(n) > t.cfg.MaxJobs {
		t.mQuotaRejected.Inc()
		return false
	}
	t.jobs += int64(n)
	t.mJobs.Add(uint64(n))
	return true
}

// tenantKey is the context key the middleware stores the caller under.
type tenantKey struct{}

// tenantFrom returns the request's authenticated tenant, nil when auth
// is disabled.
func tenantFrom(r *http.Request) *tenant {
	t, _ := r.Context().Value(tenantKey{}).(*tenant)
	return t
}

// openPath reports whether the endpoint stays unauthenticated.
// Metrics stay open alongside healthz: scrapers don't carry work, and
// the exposition names tenants but never tokens.
func openPath(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		(r.URL.Path == "/v1/healthz" || r.URL.Path == "/v1/version" ||
			r.URL.Path == "/v1/metrics")
}

// middleware enforces auth + rate limits in front of the mux.
func (s *Server) middleware(w http.ResponseWriter, r *http.Request) {
	if openPath(r) {
		s.mux.ServeHTTP(w, r)
		return
	}
	t := s.auth.authenticate(r)
	if t == nil {
		writeErrorBody(w, http.StatusUnauthorized, wire.ErrorBody{
			Error: "missing or unknown bearer token",
			Kind:  "unauthorized",
		})
		return
	}
	ok, wait := t.admit(s.now())
	if !ok {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(wait/time.Second)+1, 10))
		writeErrorBody(w, http.StatusTooManyRequests, wire.ErrorBody{
			Error:        "rate limit exceeded for tenant " + t.cfg.Name,
			Kind:         "rate_limited",
			RetryAfterMS: int64(wait / time.Millisecond),
		})
		return
	}
	s.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, t)))
}

// writeErrorBody emits a wire.ErrorBody rejection.
func writeErrorBody(w http.ResponseWriter, code int, body wire.ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
