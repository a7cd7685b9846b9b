// Multi-tenant kernel registry. One process can host several isolated
// kernels — one per tenant — each with its own filter table, sharded
// statistics, and telemetry recorder with its event log.
// Isolation is structural: tenants share no counters and no filter
// table, so one tenant's install churn, quarantine state, or traffic
// mix cannot perturb another's metrics or verdicts. The registry is
// only a name→tenant directory; the hot path never touches it —
// callers resolve a tenant once and dispatch against its kernel
// directly, on that kernel's lock-free snapshot path.
package kernel

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// Tenant is one isolated kernel with its observability surfaces
// attached. The fields are wired together at Create time (the recorder
// is already attached to the kernel) and never reassigned, so they may
// be read without holding the registry lock.
type Tenant struct {
	Name   string
	Kernel *Kernel
	Rec    *telemetry.Recorder
	// Audit is the tenant's one event log, Rec.Log(): spans, audit
	// records and anomalies. Callers wiring their own audit logger
	// should tee through Audit.Handler so /debug/timeline keeps seeing
	// install decisions. The field keeps the name it had when it held
	// only audit records because external harnesses wire their audit
	// loggers through tn.Audit.Handler.
	Audit *telemetry.Log
	// Store is the tenant's durability journal, non-nil only after
	// AttachStore. Set during boot wiring, before the tenant serves
	// traffic, so like the other fields it is read without the registry
	// lock.
	Store *store.Store
}

// AttachStore opens (creating if absent) the tenant's durable filter
// store in dir, runs verified recovery on the tenant's kernel —
// re-validating every journaled binary through the full proof-checking
// pipeline — and leaves the store attached for write-ahead duty. Part
// of boot wiring: call before the tenant serves traffic. The returned
// report says what restored and what was skipped; the error return is
// environmental (unreadable directory, canceled context) only.
func (t *Tenant) AttachStore(ctx context.Context, dir string, opt store.Options) (*RecoveryReport, error) {
	s, err := store.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	rep, err := t.Kernel.Recover(ctx, s)
	if err != nil {
		s.Close()
		return rep, err
	}
	t.Store = s
	return rep, nil
}

// CloseStore closes the tenant's store, if any. The closed store stays
// attached to the kernel on purpose: a straggler install racing
// shutdown fails its journal append (store.ErrClosed) and is rejected
// rather than acked without durability — detaching instead would
// silently downgrade late installs to ephemeral. Belongs in shutdown,
// after the last in-flight install has committed.
func (t *Tenant) CloseStore() error {
	s := t.Store
	if s == nil {
		return nil
	}
	t.Store = nil
	return s.Close()
}

// eventBase derives the tenant's EventID starting point from its name:
// a 20-bit FNV-1a hash shifted above the low 32 bits. IDs from
// different tenants land in disjoint ranges (until a tenant performs
// 2^32 operations), so a leaked or logged EventID identifies its
// tenant, and every ID stays below 2^53 — exact in JSON numbers.
func eventBase(name string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return uint64(h.Sum32()&0xFFFFF) << 32
}

// Registry is a concurrency-safe directory of tenants. The lock guards
// only the directory map — never dispatch, which goes straight at a
// resolved Tenant's kernel.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewRegistry returns an empty tenant directory.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*Tenant)}
}

// Create boots a fresh kernel for name with a telemetry recorder
// attached, and registers it. The tenant comes up on
// the interpreter backend with no filters; callers configure backend,
// budget, and quarantine posture on t.Kernel before installing.
func (r *Registry) Create(name string) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("tenant name must be non-empty")
	}
	t := &Tenant{
		Name:   name,
		Kernel: New(),
		// Windowed recorder: registry tenants serve live endpoints, so
		// they get recent rates and windowed quantiles, not just
		// since-boot cumulatives.
		Rec: telemetry.NewWith(telemetry.Options{Window: &telemetry.WindowOptions{}}),
	}
	t.Audit = t.Rec.Log()
	t.Kernel.SetRecorder(t.Rec)
	t.Kernel.SeedEventBase(eventBase(name))
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[name]; dup {
		return nil, fmt.Errorf("tenant %q already exists", name)
	}
	r.tenants[name] = t
	return t, nil
}

// Get resolves a tenant by name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Remove unregisters a tenant and quiesces its kernel so every
// retired filter-table snapshot is reclaimed. Reports whether the
// tenant existed. In-flight dispatches against the removed tenant's
// kernel finish normally — removal only drops the directory entry.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	t, ok := r.tenants[name]
	delete(r.tenants, name)
	r.mu.Unlock()
	if ok {
		t.Kernel.Quiesce()
	}
	return ok
}

// Names returns the registered tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AttachStores attaches one durable store per registered tenant, each
// in its own subdirectory base/<tenant>, recovering each tenant's
// kernel from its journal. Returns the per-tenant recovery reports; a
// failure on one tenant aborts (stores already attached stay
// attached, so a retry is safe).
func (r *Registry) AttachStores(ctx context.Context, base string, opt store.Options) (map[string]*RecoveryReport, error) {
	reports := make(map[string]*RecoveryReport)
	for _, t := range r.Tenants() {
		if t.Store != nil {
			continue
		}
		rep, err := t.AttachStore(ctx, filepath.Join(base, t.Name), opt)
		if err != nil {
			return reports, fmt.Errorf("tenant %q: %w", t.Name, err)
		}
		reports[t.Name] = rep
	}
	return reports, nil
}

// CloseStores closes every tenant's store (shutdown path).
func (r *Registry) CloseStores() error {
	var first error
	for _, t := range r.Tenants() {
		if err := t.CloseStore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Tenants returns the registered tenants sorted by name.
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
	return ts
}
