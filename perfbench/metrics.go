package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// layerMetrics computes the per-layer metrics of a traced run from its
// spans; plain is the untraced phase that precedes the traced one.
func (b *bench) layerMetrics(put func(name, unit string, v float64), plain, traced *phase) {
	ts := b.tracers()
	us := func(ns []float64) float64 { return median(ns) / 1e3 }

	v, _, _ := durations(ts, "pcc.ValidateCtx", "")
	put("pcc.validate_us", "us", us(v))
	var parse, sig, vc, check, steps, alloc []float64
	for _, t := range ts {
		for _, st := range t.stats {
			parse = append(parse, float64(st.Parse))
			sig = append(sig, float64(st.SigCheck))
			vc = append(vc, float64(st.VCGen))
			check = append(check, float64(st.Check))
			steps = append(steps, float64(st.CheckSteps))
			alloc = append(alloc, float64(st.HeapBytes)/1024)
		}
	}
	put("pccbin.parse_us", "us", us(parse))
	put("lf.sig_us", "us", us(sig))
	put("vcgen.vc_us", "us", us(vc))
	put("lf.check_us", "us", us(check))
	put("lf.check_steps", "count", sum(steps)/float64(len(steps)))
	put("pcc.alloc_kb", "kB", median(alloc))

	c, _, _ := durations(ts, "machine.Compile", "")
	put("machine.compile_us", "us", us(c))
	a, _, _ := durations(ts, "store.Append", "")
	put("store.append_us", "us", us(a))
	put("store.append_p99_us", "us", p99(a)/1e3)
	cp, _, _ := durations(ts, "store.Compact", "")
	put("store.compact_us", "us", us(cp))
	put("store.compactions", "count", float64(len(cp)))
	r, _, _ := durations(ts, "store.ReplayDir", "")
	put("store.replay_us", "us", us(r))

	put("kernel.install_self_us", "us", us(selfTimes(ts, "op.install", "kernel.InstallFilterCtx")))
	rec := selfTimes(ts, "op.recover", "kernel.AttachStore")
	rec = append(rec, selfTimes(ts, "op.recover", "kernel.Recover")...)
	put("kernel.recover_self_us", "us", us(rec))
	put("kernel.cache_hit_ratio", "ratio", b.hitRatio)

	tag := postureTag(b.wl.served())
	d, dp, _ := durations(ts, "kernel.DeliverPackets", tag)
	run, rp, cyc := durations(ts, "machine.Run", tag)
	deliverNs, runNs := sum(d)/float64(dp), sum(run)/float64(rp)
	put("kernel.deliver_ns_per_pkt", "ns", deliverNs)
	put("machine.run_ns_per_pkt", "ns", runNs)
	put("machine.cycles_per_pkt", "cycles", float64(cyc)/float64(rp))
	put("machine.ns_per_cycle", "ns", sum(run)/float64(cyc))
	put("kernel.batch_self_ns_per_pkt", "ns", deliverNs-runNs)
	sd, sp, _ := durations(ts, "kernel.DeliverPackets", "served")
	bd, bp, _ := durations(ts, "kernel.DeliverPackets", "bare")
	put("telemetry.ns_per_pkt", "ns", sum(sd)/float64(sp)-sum(bd)/float64(bp))
	put("gc.alloc_b_per_batch", "B", b.batchAlloc)

	ops := float64(plain.ops)
	put("gc.cycles_per_op", "count", float64(plain.gcCycles)/ops)
	put("gc.pause_us_per_op", "us", plain.gcPause.Seconds()*1e6/ops)
	put("gc.alloc_kb_per_op", "kB", float64(plain.allocBytes)/1024/ops)
	put("trace.overhead_pct", "%", 100*(rate(plain)/rate(traced)-1))
}

// rate is the phase's completed work per second.
func rate(p *phase) float64 { return float64(p.units) / p.elapsed.Seconds() }

// summarize prints the run's latency breakdown to log for readers; the
// result line carries only the contract metrics.
func summarize(log io.Writer, workload string, p *phase) {
	fmt.Fprintf(log, "perfbench: %s: %d ops in %s (%.0f units/s)\n",
		workload, p.ops, p.elapsed.Round(time.Millisecond), rate(p))
	if p.cold.n > 0 {
		fmt.Fprintf(log, "perfbench: cold installs n=%d p50=%.0fus p99=%.0fus; warm n=%d p50=%.0fus p99=%.0fus\n",
			p.cold.n, p.cold.quantile(0.5)/1e3, p.cold.quantile(0.99)/1e3,
			p.lat.n, p.lat.quantile(0.5)/1e3, p.lat.quantile(0.99)/1e3)
	}
}

// logEnv records on stderr what the run ran on.
func logEnv(log io.Writer, b *bench) {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"store_fs":   fsName(b.o.work),
		"workload":   b.o.workload,
		"seed":       b.o.seed,
	}
	line, _ := json.Marshal(env) // map of plain values: cannot fail
	fmt.Fprintf(log, "perfbench: env %s\n", line)
}

// fsName names the filesystem holding dir by its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
