// Command pccmon is a network-monitoring application of the kind the
// paper's introduction motivates ("packet filters have been used
// successfully in network monitoring and diagnosis"): it boots the
// simulated extensible kernel, certifies and installs all four paper
// filters plus any user-supplied ones, runs a trace (synthetic or
// pcap) through them, and reports per-filter traffic statistics with
// the modeled per-packet cost — the whole PCC story as one tool.
//
// Usage:
//
//	pccmon [-packets N] [-pcap trace.pcap] [-filter name=file.pcc]...
//	       [-backend interp|compiled] [-flightrecorder]
//	       [-telemetry [-slowest N] [-trace-out spans.jsonl]]
//	       [-serve :6060 [-pps N] [-audit-out audit.jsonl] [-tenants a,b]
//	                     [-store DIR]]
//	       [-watch URL [-watch-interval 2s] [-watch-count N]]
//
// With -telemetry, a telemetry recorder is attached to the kernel for
// the whole run and the report ends with per-stage latency summaries,
// the slowest validations, and the Prometheus-style metrics
// exposition page (see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"

	pcc "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pccmon: ")
	packets := flag.Int("packets", 50000, "synthetic trace length")
	pcapFile := flag.String("pcap", "", "replay a pcap capture instead of the generator")
	seed := flag.Uint64("seed", 1996, "synthetic trace seed")
	budget := flag.Int64("budget", 0, "per-packet worst-case cycle budget enforced at install (0 = off)")
	telem := flag.Bool("telemetry", false, "attach a telemetry recorder; dump the metrics exposition page and slowest validations")
	backendFlag := flag.String("backend", "interp", "execution backend for installed filters (interp or compiled)")
	flightRec := flag.Bool("flightrecorder", false, "record dispatch anomalies in a telemetry recorder's event log; dump them after the run")
	slowest := flag.Int("slowest", 5, "with -telemetry, how many slowest validations to list")
	traceOut := flag.String("trace-out", "", "with -telemetry, write the span trace as JSON-lines to a file")
	serve := flag.String("serve", "", "serve the live observability endpoints on this address (e.g. :6060) instead of a one-shot report")
	pps := flag.Int("pps", 2000, "with -serve, synthetic traffic rate in packets/second")
	auditOut := flag.String("audit-out", "", "with -serve, write the JSON audit log to a file instead of stderr")
	storeDir := flag.String("store", "", "with -serve, durable filter store directory (one journal per tenant under it): installs ack only after the journal write, and boot recovers the journaled set through full re-validation")
	tenantsFlag := flag.String("tenants", "", "with -serve, comma-separated tenant names, one isolated kernel each (default a single tenant \"default\")")
	watch := flag.String("watch", "", "poll a serving monitor's /debug/vars URL and print live windowed rates (installs/s, packets/s, rejects, p99 by owner)")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "with -watch, polling interval")
	watchCount := flag.Int("watch-count", 0, "with -watch, number of refreshes before exiting (0 = forever)")
	extra := map[string]string{}
	flag.Func("filter", "additional filter as name=file.pcc (repeatable)", func(s string) error {
		name, file, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("expected name=file.pcc")
		}
		extra[name] = file
		return nil
	})
	flag.Parse()

	if *watch != "" {
		if err := runWatch(*watch, *watchInterval, *watchCount); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *serve != "" {
		var tenants []string
		for _, name := range strings.Split(*tenantsFlag, ",") {
			if name = strings.TrimSpace(name); name != "" {
				tenants = append(tenants, name)
			}
		}
		if err := runServe(*serve, *auditOut, *storeDir, *budget, *seed, *pps, extra, tenants); err != nil {
			log.Fatal(err)
		}
		return
	}

	k := kernel.New()
	// Anomalies land in the recorder's event log, so -flightrecorder
	// attaches a recorder too.
	var rec *telemetry.Recorder
	if *telem || *flightRec {
		rec = telemetry.New()
		k.SetRecorder(rec)
	}
	be, err := kernel.ParseBackend(*backendFlag)
	if err != nil {
		log.Fatal(err)
	}
	if err := k.SetBackend(be); err != nil {
		log.Fatal(err)
	}
	if *budget > 0 {
		k.SetCycleBudget(kernel.CycleBudget(*budget))
		fmt.Printf("cycle budget: %d cycles/packet (static WCET enforced at install)\n", *budget)
	}
	// Certify the paper filters and collect user-supplied binaries,
	// then fan the whole set through the concurrent validation
	// pipeline in one batch.
	var reqs []kernel.InstallRequest
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), k.FilterPolicy(), nil)
		if err != nil {
			log.Fatal(err)
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: f.String(), Binary: cert.Binary})
	}
	for name, file := range extra {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: name, Binary: data})
	}
	for i, err := range k.InstallFilterBatch(reqs) {
		if err == nil {
			continue
		}
		if _, user := extra[reqs[i].Owner]; user {
			log.Fatalf("%v (the kernel refuses unproven filters)", err)
		}
		fmt.Printf("%v\n", err)
	}
	fmt.Printf("monitoring with %d validated filters: %s\n",
		len(k.Owners()), strings.Join(k.Owners(), ", "))

	var pkts []pktgen.Packet
	if *pcapFile != "" {
		f, err := os.Open(*pcapFile)
		if err != nil {
			log.Fatal(err)
		}
		pkts, err = pktgen.ReadPcap(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		pkts = pktgen.Generate(*packets, pktgen.Config{Seed: *seed})
	}

	var bytes int
	for _, p := range pkts {
		bytes += p.Len()
		if _, err := k.DeliverPacket(p); err != nil {
			log.Fatal(err)
		}
	}

	st := k.Stats()
	fmt.Printf("\nprocessed %d packets (%d bytes)\n", st.Packets, bytes)
	fmt.Printf("%-14s %10s %8s\n", "filter", "matches", "share")
	accepts := k.Accepts()
	names := make([]string, 0, len(accepts))
	for n := range accepts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %10d %7.1f%%\n", n, accepts[n],
			100*float64(accepts[n])/float64(st.Packets))
	}
	perPkt := machine.Micros(st.ExtensionCycles) / float64(st.Packets) / float64(len(k.Owners()))
	fmt.Printf("\nmodeled filtering cost: %.2f µs per packet per filter "+
		"(%.1f ms total at 175 MHz)\n", perPkt, machine.Micros(st.ExtensionCycles)/1000)
	fmt.Printf("one-time validation: %.2f ms for %d filters — no further run-time checks\n",
		st.ValidationMicros/1000, st.Validations-st.Rejections)
	fmt.Printf("validation pipeline: %d batch(es), queue wait %.0f µs; "+
		"proof cache %d hits / %d misses / %d evictions\n",
		st.BatchInstalls, st.QueueWaitMicros, st.CacheHits, st.CacheMisses, st.CacheEvictions)

	if *telem {
		reportTelemetry(rec, *slowest, *traceOut)
	}
	if *flightRec {
		reportFlightRecorder(rec.Log().Snapshot(telemetry.ClassFlight))
	}
}

// reportFlightRecorder dumps the log's flight class: a human-readable
// line per retained anomaly, oldest first, plus the class accounting.
// With nothing abnormal in the run the timeline is just the config
// changes — which is itself the finding.
func reportFlightRecorder(snap telemetry.ClassSnapshot) {
	fmt.Printf("\n== flight recorder (%d events retained, %d recorded, %d dropped) ==\n",
		len(snap.Events), snap.Appended, snap.Dropped)
	for _, e := range snap.Events {
		owner := e.Owner
		if owner == "" {
			owner = "-"
		}
		fmt.Printf("%6d  %s  %-18s %-14s %s\n", e.Seq,
			time.Unix(0, e.TimeUnixNanos).Format("15:04:05.000000"),
			e.Kind, owner, e.Detail)
	}
}

// reportTelemetry dumps the telemetry surfaces: stage latency
// summaries, the top-N slowest validations from the span trace, the
// Prometheus-style exposition page, and (optionally) the raw trace as
// JSON-lines.
func reportTelemetry(rec *telemetry.Recorder, slowest int, traceOut string) {
	fmt.Printf("\n== stage latencies (p50 / p90 / p99, µs) ==\n")
	for _, stage := range telemetry.Stages {
		h := rec.StageHistogram(stage)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("%-12s %9.1f %9.1f %9.1f   (%d observations)\n", stage,
			h.Quantile(0.50)*1e6, h.Quantile(0.90)*1e6, h.Quantile(0.99)*1e6, h.Count())
	}

	type val struct {
		owner string
		dur   float64 // µs
		err   string
	}
	var vals []val
	for _, e := range rec.Log().Events(telemetry.Query{Class: telemetry.ClassSpan, Stage: telemetry.StageValidate}) {
		vals = append(vals, val{e.Owner, float64(e.DurNanos) / 1e3, e.Err})
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].dur > vals[j].dur })
	if len(vals) > slowest {
		vals = vals[:slowest]
	}
	fmt.Printf("\n== %d slowest validations ==\n", len(vals))
	for _, v := range vals {
		verdict := "ok"
		if v.err != "" {
			verdict = "REJECTED: " + v.err
		}
		fmt.Printf("%-14s %9.1f µs  %s\n", v.owner, v.dur, verdict)
	}

	fmt.Printf("\n== metrics exposition ==\n")
	if err := rec.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			log.Fatal(err)
		}
		spans := rec.Log().Snapshot(telemetry.ClassSpan)
		if err := telemetry.WriteJSONL(f, spans.Events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d spans to %s (%d recorded, %d dropped by the ring)\n",
			len(spans.Events), traceOut, spans.Appended, spans.Dropped)
	}
}
