// Live observability surface: `pccmon -serve ADDR` boots one kernel
// per tenant (-tenants a,b,…; default a single tenant "default") with
// telemetry, audit logging, and cycle profiling all attached, keeps a
// synthetic packet stream flowing through each tenant's installed
// filters, and serves the monitoring endpoints over HTTP:
//
//	/healthz               liveness: 200 once filters are installed
//	/metrics               Prometheus text exposition (telemetry recorder)
//	/debug/vars            JSON snapshot: kernel stats, traffic, telemetry
//	/debug/flightrecorder  JSON snapshot of the event log's flight class:
//	                       the last dispatch anomalies and config
//	                       changes, oldest first
//	/debug/timeline        the event log filtered by one query: spans,
//	                       audit records, and flight events sharing an
//	                       EventID, owner, … (?id=&owner=&stage=&kind=&since=)
//	/debug/pprof/*         the host Go runtime's own profiles
//	/debug/pprof/filters   pprof-compatible *simulated* profile: cycles
//	                       per Alpha instruction across installed filters
//	/profile/              index of profiled filters
//	/profile/{filter}      annotated disassembly with cycle attribution
//	/tenants               JSON index of the hosted tenants
//	/t/{name}/…            any of the per-tenant endpoints above, routed
//	                       to that tenant's kernel and recorder
//	                       (e.g. /t/alpha/metrics)
//
// The bare paths serve the default tenant (the first -tenants name),
// so single-tenant deployments and their dashboards keep working
// unchanged. Tenant isolation is the kernel registry's: each tenant
// has its own filter table, sharded statistics, and telemetry recorder
// with its event log, so one tenant's churn never moves another's
// metrics (see docs/OBSERVABILITY.md).
//
// The process runs until SIGINT/SIGTERM and then shuts the listener
// down gracefully. Every install/reject decision made while serving
// is written to the structured audit log (JSON lines on stderr, or
// -audit-out FILE), tagged with its tenant.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// monitor is one tenant's serving state: its kernel (with recorder
// attached via the registry) plus the synthetic-traffic counters the
// endpoints report.
type monitor struct {
	name  string
	k     *kernel.Kernel
	rec   *telemetry.Recorder
	start time.Time

	packets atomic.Int64 // synthetic packets delivered
	bytes   atomic.Int64
	ready   atomic.Bool // filters installed; /healthz gates on this
}

// server hosts the tenant set: the kernel registry that owns the
// isolated kernels, and one monitor per tenant in -tenants order (the
// first is the default the bare legacy paths serve).
type server struct {
	reg *kernel.Registry
	ts  []*monitor
}

func (s *server) def() *monitor { return s.ts[0] }

func (s *server) tenant(name string) (*monitor, bool) {
	for _, m := range s.ts {
		if m.name == name {
			return m, true
		}
	}
	return nil, false
}

// bootServer builds one fully observed kernel per tenant name (default
// a single "default" tenant) through the kernel registry and installs
// the paper filters plus any user-supplied binaries into each.
func bootServer(auditLog *slog.Logger, storeBase string, budget int64, extra map[string]string, tenants []string) (*server, error) {
	if len(tenants) == 0 {
		tenants = []string{"default"}
	}
	s := &server{reg: kernel.NewRegistry()}
	for _, name := range tenants {
		m, err := bootTenant(s.reg, name, auditLog, storeBase, budget, extra)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
		s.ts = append(s.ts, m)
	}
	return s, nil
}

// bootTenant creates one registry tenant and brings its kernel to the
// serving posture: audit logger tagged with the tenant, compiled
// backend, cycle profiling, quarantine, optional cycle budget, and
// the filter set installed.
func bootTenant(reg *kernel.Registry, name string, auditLog *slog.Logger, storeBase string, budget int64, extra map[string]string) (*monitor, error) {
	tn, err := reg.Create(name)
	if err != nil {
		return nil, err
	}
	m := &monitor{
		name:  name,
		k:     tn.Kernel,
		rec:   tn.Rec,
		start: time.Now(),
	}
	// Tee audit records through the tenant's event log on their way to
	// the durable sink, so /debug/timeline can select recent install
	// decisions with spans and flight events without re-parsing log
	// files.
	m.k.SetAuditLog(slog.New(tn.Audit.Handler(auditLog.Handler())).With("tenant", name))
	// Serve on the compiled backend with profiling attached: profiled
	// threaded code is the always-on production posture this monitor
	// demonstrates (profiling no longer reroutes dispatch to the
	// interpreter).
	if err := m.k.SetBackend(kernel.BackendCompiled); err != nil {
		return nil, err
	}
	m.k.SetProfiling(true)
	// A served kernel faces untrusted producers: repeated rejections
	// embargo the offending owner with exponential backoff. The embargo
	// set is visible in /debug/vars ("quarantined") and as the
	// pcc_quarantined_owners gauge in /metrics.
	m.k.SetQuarantine(kernel.QuarantineConfig{Threshold: 3, Base: time.Second, Max: 5 * time.Minute})
	if budget > 0 {
		m.k.SetCycleBudget(kernel.CycleBudget(budget))
	}

	// Durability first: recover whatever a previous process journaled
	// (every record re-proved through the full validation pipeline —
	// the disk is just another untrusted producer), then leave the
	// store attached so every install below, and every install the
	// /install endpoint accepts later, acks only after its journal
	// record is on disk.
	if storeBase != "" {
		rep, err := tn.AttachStore(context.Background(),
			filepath.Join(storeBase, name), store.Options{CompactEvery: 512})
		if err != nil {
			return nil, fmt.Errorf("attach store: %w", err)
		}
		log.Printf("tenant %s: recovered %d filter(s) from %s in %s (%d skipped, %d stale, torn tail: %v)",
			name, rep.Restored, tn.Store.Dir(), rep.Duration.Round(time.Millisecond),
			len(rep.Skipped), rep.Stale, rep.TornTail)
	}

	// The default filter set tops up what recovery restored: an owner
	// already recovered keeps its journaled binary (the journal, not
	// this process's bootstrap, is the source of truth).
	present := map[string]bool{}
	for _, o := range m.k.Owners() {
		present[o] = true
	}
	var reqs []kernel.InstallRequest
	for _, f := range filters.All {
		if present[f.String()] {
			continue
		}
		cert, err := pcc.Certify(filters.Source(f), m.k.FilterPolicy(), nil)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: f.String(), Binary: cert.Binary})
	}
	for name, file := range extra {
		if present[name] {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: name, Binary: data})
	}
	for i, err := range m.k.InstallFilterBatch(reqs) {
		if err != nil {
			return nil, fmt.Errorf("install %q: %w", reqs[i].Owner, err)
		}
	}
	m.ready.Store(true)
	return m, nil
}

// pump delivers an endless synthetic trace through the kernel at
// roughly pps packets/second until ctx is cancelled, so the live
// endpoints always have fresh traffic behind them. Each tick goes
// through the vectorized batch path, the one production dispatch uses
// — and the one that feeds the per-filter latency histograms.
func (m *monitor) pump(ctx context.Context, seed uint64, pps int) {
	const tick = 20 * time.Millisecond
	batch := pps / int(time.Second/tick)
	if batch < 1 {
		batch = 1
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	raw := make([][]byte, 0, batch)
	for gen := 0; ; gen++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		pkts := pktgen.Generate(batch, pktgen.Config{Seed: seed + uint64(gen)})
		raw = raw[:0]
		var bytes int64
		for _, p := range pkts {
			raw = append(raw, p.Data)
			bytes += int64(p.Len())
		}
		if _, err := m.k.DeliverPackets(raw); err != nil {
			// Validated filters cannot fault; if one does the
			// monitor is broken and should say so loudly.
			log.Printf("deliver: %v", err)
			return
		}
		m.packets.Add(int64(len(raw)))
		m.bytes.Add(bytes)
	}
}

// pump drives every tenant's synthetic stream concurrently — one
// pump goroutine per tenant, seeds offset so the tenants see
// different traffic — and returns when ctx is cancelled.
func (s *server) pump(ctx context.Context, seed uint64, pps int) {
	var wg sync.WaitGroup
	for i, m := range s.ts {
		wg.Add(1)
		go func(i int, m *monitor) {
			defer wg.Done()
			m.pump(ctx, seed+uint64(i)*1009, pps)
		}(i, m)
	}
	wg.Wait()
}

// mux wires the endpoints. Split out from serve() so tests can mount
// it on an httptest server. The bare paths serve the default tenant;
// /t/{name}/… routes the same surface per tenant; /tenants indexes
// them.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	d := s.def()
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/install", d.handleInstall)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/debug/vars", d.handleVars)
	mux.HandleFunc("/debug/flightrecorder", d.handleFlightRecorder)
	mux.HandleFunc("/debug/timeline", d.handleTimeline)
	mux.HandleFunc("/profile/", d.handleProfile)
	mux.HandleFunc("/tenants", s.handleTenants)
	mux.HandleFunc("/t/", s.handleTenantRoute)
	// Host-process profiles from the Go runtime, plus the simulated
	// filter profile alongside them (the monitor observes two machines:
	// the host Go process and the modeled DEC 21064).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/pprof/filters", d.handleFilterProfile)
	return mux
}

// handleTenants serves the tenant index: every hosted tenant with its
// routing prefix and headline counters, in serving order.
func (s *server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		Name    string `json:"name"`
		Prefix  string `json:"prefix"`
		Filters int    `json:"filters"`
		Packets int64  `json:"traffic_packets"`
		Ready   bool   `json:"ready"`
	}
	rows := make([]row, 0, len(s.ts))
	for _, m := range s.ts {
		rows = append(rows, row{
			Name:    m.name,
			Prefix:  "/t/" + m.name + "/",
			Filters: len(m.k.Owners()),
			Packets: m.packets.Load(),
			Ready:   m.ready.Load(),
		})
	}
	writeJSON(w, "tenants", map[string]any{"default": s.def().name, "tenants": rows})
}

// writeJSON serves v as one indented JSON document; what names the
// endpoint in the log line of a failed write.
func writeJSON(w http.ResponseWriter, what string, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("%s: %v", what, err)
	}
}

// handleTenantRoute dispatches /t/{name}/{endpoint} to that tenant's
// handlers — the same surface the bare paths expose for the default
// tenant.
func (s *server) handleTenantRoute(w http.ResponseWriter, r *http.Request) {
	name, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/t/"), "/")
	m, ok := s.tenant(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no tenant %q (see /tenants)", name), http.StatusNotFound)
		return
	}
	switch {
	case sub == "healthz":
		m.handleHealthz(w, r)
	case sub == "install":
		m.handleInstall(w, r)
	case sub == "metrics":
		m.handleMetrics(w, r)
	case sub == "debug/vars":
		m.handleVars(w, r)
	case sub == "debug/flightrecorder":
		m.handleFlightRecorder(w, r)
	case sub == "debug/timeline":
		m.handleTimeline(w, r)
	case sub == "debug/pprof/filters":
		m.handleFilterProfile(w, r)
	case sub == "profile" || strings.HasPrefix(sub, "profile/"):
		m.profilePage(w, strings.TrimPrefix(strings.TrimPrefix(sub, "profile"), "/"))
	default:
		http.Error(w, fmt.Sprintf("no endpoint %q for tenant %q", sub, name), http.StatusNotFound)
	}
}

func (m *monitor) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !m.ready.Load() {
		http.Error(w, "filters not installed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok: %d filters, %d packets delivered, up %s\n",
		len(m.k.Owners()), m.packets.Load(), time.Since(m.start).Round(time.Second))
}

// handleInstall accepts a PCC binary over POST (?owner=NAME, body =
// the binary) and submits it to the tenant's kernel — the full
// validation pipeline, quarantine posture, and, when a store is
// attached, the write-ahead journal. A 200 response therefore means
// the install is durable: the handler does not answer until the
// journal append has fsynced. Rejections come back 422 with the
// kernel's reason; the binary is never partially installed.
func (m *monitor) handleInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a PCC binary (?owner=NAME)", http.StatusMethodNotAllowed)
		return
	}
	owner := r.URL.Query().Get("owner")
	if owner == "" {
		http.Error(w, "missing ?owner=NAME", http.StatusBadRequest)
		return
	}
	binary, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	if len(binary) == 0 {
		http.Error(w, "empty binary", http.StatusBadRequest)
		return
	}
	if err := m.k.InstallFilterCtx(r.Context(), owner, binary); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{
		"installed": owner,
		"filters":   len(m.k.Owners()),
		"durable":   m.k.Store() != nil,
	})
}

func (m *monitor) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// An embargo lapses without an event; Quarantined republishes the
	// pcc_quarantined_owners gauge from the live count.
	m.k.Quarantined()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := m.rec.WritePrometheus(w); err != nil {
		log.Printf("metrics: %v", err)
	}
}

// handleVars serves the expvar-style JSON snapshot: kernel stats, the
// synthetic traffic counters, and the telemetry snapshot in one
// document.
func (m *monitor) handleVars(w http.ResponseWriter, _ *http.Request) {
	st := m.k.Stats()
	flight := m.rec.Log().Snapshot(telemetry.ClassFlight)
	writeJSON(w, "vars", map[string]any{
		"tenant":           m.name,
		"uptime_seconds":   time.Since(m.start).Seconds(),
		"kernel":           st,
		"owners":           m.k.Owners(),
		"accepts":          m.k.Accepts(),
		"traffic_packets":  m.packets.Load(),
		"traffic_bytes":    m.bytes.Load(),
		"quarantined":      m.k.Quarantined(),
		"extension_micros": machine.Micros(st.ExtensionCycles),
		"telemetry":        m.rec.Snapshot(false),
		"flight_recorder": map[string]int64{
			"appended": flight.Appended,
			"dropped":  flight.Dropped,
		},
	})
}

// handleProfile serves annotated cycle listings: /profile/ indexes
// the profiled filters, /profile/{name} renders one filter's
// disassembly with per-PC and per-block cycle attribution.
func (m *monitor) handleProfile(w http.ResponseWriter, r *http.Request) {
	m.profilePage(w, strings.TrimPrefix(r.URL.Path, "/profile/"))
}

// profilePage renders the profile index ("" name) or one filter's
// annotated listing; shared between the bare and /t/{name}/ routes.
func (m *monitor) profilePage(w http.ResponseWriter, name string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if name == "" {
		snaps := m.k.FilterProfiles()
		fmt.Fprintf(w, "%d profiled filters (cycle totals are lifetime sums):\n", len(snaps))
		sort.Slice(snaps, func(i, j int) bool {
			return snaps[i].TotalCycles() > snaps[j].TotalCycles()
		})
		for _, s := range snaps {
			fmt.Fprintf(w, "  %-14s %12d cycles  %8d runs   /profile/%s\n",
				s.Owner, s.TotalCycles(), s.Profile.Runs, s.Owner)
		}
		return
	}
	snap, ok := m.k.FilterProfile(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no profiled filter %q", name), http.StatusNotFound)
		return
	}
	io.WriteString(w, snap.AnnotatedListing())
}

// handleFlightRecorder serves the event log's flight class as one JSON
// document: capacity, appended/dropped accounting, and the retained
// anomaly events oldest first.
func (m *monitor) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, "flight recorder", m.rec.Log().Snapshot(telemetry.ClassFlight))
}

// handleTimeline serves the tenant's event log filtered by the query
// parameters, split into spans, audit records and flight events:
//
//	id=N        only events carrying correlation EventID N
//	owner=S     only events for owner S
//	stage=S     only spans of pipeline stage S
//	kind=S      only audit records / flight events of kind S
//	since=DUR   only events newer than now-DUR (Go duration, e.g. 30s)
//
// With id= the response is the full causal story of one kernel
// operation across all three classes.
func (m *monitor) handleTimeline(w http.ResponseWriter, r *http.Request) {
	q := telemetry.Query{
		Owner: r.URL.Query().Get("owner"),
		Stage: r.URL.Query().Get("stage"),
		Kind:  r.URL.Query().Get("kind"),
	}
	if ids := r.URL.Query().Get("id"); ids != "" {
		id, err := strconv.ParseUint(ids, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad id %q: %v", ids, err), http.StatusBadRequest)
			return
		}
		q.Event = id
	}
	if ss := r.URL.Query().Get("since"); ss != "" {
		d, err := time.ParseDuration(ss)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad since %q: %v (want a Go duration like 30s)", ss, err), http.StatusBadRequest)
			return
		}
		q.SinceUnixNanos = time.Now().Add(-d).UnixNano()
	}
	tl := m.rec.Log().Timeline(q)
	tl.Tenant = m.name
	writeJSON(w, "timeline", tl)
}

// handleFilterProfile serves the simulated-machine pprof profile:
// cycles and visits per Alpha instruction, readable by `go tool
// pprof http://host/debug/pprof/filters`.
func (m *monitor) handleFilterProfile(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="filters.pb.gz"`)
	if err := m.k.WriteFilterProfile(w); err != nil {
		log.Printf("filter profile: %v", err)
	}
}

// runServe is the -serve entry point: boot every tenant, pump traffic
// through each, serve until SIGINT/SIGTERM, then drain the listener
// gracefully.
func runServe(addr string, auditOut string, storeBase string, budget int64, seed uint64, pps int, extra map[string]string, tenants []string) error {
	auditW := io.Writer(os.Stderr)
	if auditOut != "" {
		f, err := os.Create(auditOut)
		if err != nil {
			return err
		}
		defer f.Close()
		auditW = f
	}
	s, err := bootServer(slog.New(slog.NewJSONHandler(auditW, nil)), storeBase, budget, extra, tenants)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go s.pump(ctx, seed, pps)

	srv := &http.Server{Addr: addr, Handler: s.mux()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (%d tenant(s): %s; %d filters each, ~%d pps synthetic traffic per tenant)",
		addr, len(s.ts), strings.Join(s.reg.Names(), ", "), len(s.def().k.Owners()), pps)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received; draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Shutdown ordering is the durability contract: Shutdown returns
	// only after every in-flight handler — including /install calls
	// whose journal appends are mid-fsync — has finished, and only then
	// do the stores close. An install the client saw acked is on disk;
	// an install cut off by the drain was never acked.
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := s.reg.CloseStores(); err != nil {
		return fmt.Errorf("close stores: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
