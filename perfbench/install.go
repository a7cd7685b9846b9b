package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/store"
)

// installOwners is the number of resident owners whose filters the
// producers replace round-robin; the filter table stays this size.
const installOwners = 64

// installBlock is one unit of the seeded 1 cold : 3 warm mix: four
// installs, the one at coldAt drawn from the cold pool, the rest from
// the hot set.
type installBlock struct {
	coldAt int
	cold   int
	hot    [4]int
}

// installWorkload replaces resident owners' filters with durable acks
// in the served posture. Producers claim whole blocks, so every run
// holds exactly one cold install per three warm ones.
type installWorkload struct {
	owners   []string
	schedule []installBlock
	next     atomic.Int64
	sample   [][]byte
	byBinary map[string]Variant
	tn       *kernel.Tenant
	dir      string
	before   kernel.Stats
}

type installState struct {
	owners []string
	cursor int
	last   map[string][]byte // owner → last acked binary
}

func (d *installWorkload) served() bool { return true }

func (d *installWorkload) prepare(b *bench) error {
	c := b.corpus
	rng := rand.New(rand.NewSource(b.o.seed))
	// The cold pool is walked in a seeded cyclic order: each cold
	// variant recurs only after every other one, 2x the cache size later.
	perm := rng.Perm(len(c.Cold))
	d.schedule = make([]installBlock, len(c.Cold))
	for i := range d.schedule {
		blk := installBlock{coldAt: rng.Intn(4), cold: perm[i]}
		for j := range blk.hot {
			blk.hot[j] = rng.Intn(len(c.Hot))
		}
		d.schedule[i] = blk
	}
	for i := 0; i < installOwners; i++ {
		d.owners = append(d.owners, fmt.Sprintf("owner-%02d", i))
	}
	d.byBinary = map[string]Variant{}
	for _, v := range append(append([]Variant{}, c.Hot...), c.Cold...) {
		d.byBinary[string(v.Binary)] = v
	}
	d.sample = trace(b.o.seed+1, 4*batchSize)
	return nil
}

func (d *installWorkload) setup(b *bench, dir string, w *worker) error {
	tn, err := servedTenant()
	if err != nil {
		return err
	}
	d.tn, d.dir = tn, dir
	if _, err := b.attach(w, tn, dir); err != nil {
		return err
	}
	// Resident installs: every owner starts on a hot variant, which also
	// warms the proof cache with the whole hot set.
	hot := b.corpus.Hot
	for i, o := range d.owners {
		if err := b.install(w, tn.Kernel, o, hot[i%len(hot)].Binary, i < len(hot), true); err != nil {
			return err
		}
	}
	d.before = tn.Kernel.Stats()
	d.next.Store(0)
	return nil
}

func (d *installWorkload) teardown() {
	if d.tn != nil {
		d.tn.CloseStore()
	}
	d.tn = nil
}

func (d *installWorkload) op(b *bench, w *worker) {
	st, _ := w.state.(*installState)
	if st == nil {
		st = &installState{last: map[string][]byte{}}
		// Each producer owns a disjoint slice of the owners, so the last
		// ack per owner is well defined.
		for i, o := range d.owners {
			if i%b.procs == w.id-1 {
				st.owners = append(st.owners, o)
			}
		}
		w.state = st
	}
	c := b.corpus
	blk := d.schedule[int(d.next.Add(1)-1)%len(d.schedule)]
	for j := 0; j < 4; j++ {
		miss := j == blk.coldAt
		bin := c.Hot[blk.hot[j]].Binary
		if miss {
			bin = c.Cold[blk.cold].Binary
		}
		owner := st.owners[st.cursor]
		st.cursor = (st.cursor + 1) % len(st.owners)
		t0 := time.Now()
		err := b.install(w, d.tn.Kernel, owner, bin, miss, true)
		lat := time.Since(t0)
		w.ops++
		if err != nil {
			w.fail(fmt.Errorf("install %s: %w", owner, err))
			continue
		}
		w.record(lat, 1, miss)
		st.last[owner] = bin
	}
}

// lastAcked is each owner's last acknowledged binary: the resident
// install, unless a producer replaced it.
func (d *installWorkload) lastAcked(b *bench) map[string][]byte {
	hot := b.corpus.Hot
	want := map[string][]byte{}
	for i, o := range d.owners {
		want[o] = hot[i%len(hot)].Binary
	}
	for _, w := range b.workers {
		if st, ok := w.state.(*installState); ok {
			for o, bin := range st.last {
				want[o] = bin
			}
		}
	}
	return want
}

func (d *installWorkload) check(b *bench, w *worker) error {
	k := d.tn.Kernel
	after := k.Stats()
	b.hitRatio = hitRatio(d.before, after)
	if b.hitRatio != 0.75 {
		return fmt.Errorf("proof-cache hit ratio %v over the run, want exactly 0.75 (%d hits, %d misses)",
			b.hitRatio, after.CacheHits-d.before.CacheHits, after.CacheMisses-d.before.CacheMisses)
	}
	// Durability: the journal, read without the kernel, holds exactly
	// each owner's last acked binary.
	want := d.lastAcked(b)
	recs, rep := store.ReplayDir(d.dir)
	if len(rep.Skipped) > 0 || rep.TornTail != nil {
		return fmt.Errorf("journal replay skipped %d records (torn tail: %v)", len(rep.Skipped), rep.TornTail)
	}
	got := map[string][]byte{}
	for _, r := range recs {
		switch r.Kind {
		case store.KindInstall:
			got[r.Owner] = r.Binary
		case store.KindUninstall:
			delete(got, r.Owner)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("journal holds %d live owners, want %d", len(got), len(want))
	}
	for o, bin := range want {
		if string(got[o]) != string(bin) {
			return fmt.Errorf("journal's last binary for %s is not its last acked one", o)
		}
	}
	// Verdicts: the kernel accepts exactly what each owner's variant
	// reference accepts.
	var progs []*machine.Compiled
	var twin *kernel.Kernel
	if w.tr != nil {
		var err error
		if twin, err = bareKernel(); err != nil {
			return err
		}
		var bins [][]byte
		for _, o := range d.owners {
			bins = append(bins, want[o])
			if err := twin.InstallFilterCtx(b.ctx, o, want[o]); err != nil {
				return err
			}
		}
		if progs, err = compileAll(bins); err != nil {
			return err
		}
	}
	if err := verdicts(b, w, k, d.sample, progs, twin, want, d.byBinary); err != nil {
		return err
	}
	return d.checkForged(b, k)
}

// checkForged submits every forged binary under its own owner (so no
// owner accumulates the strikes that would quarantine it) and requires
// each to be rejected, leaving the filter table as it was.
func (d *installWorkload) checkForged(b *bench, k *kernel.Kernel) error {
	forged := b.corpus.Forged
	accepted := make([]bool, len(forged))
	var wg sync.WaitGroup
	for g := 0; g < b.procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(forged); i += b.procs {
				accepted[i] = k.InstallFilterCtx(b.ctx, fmt.Sprintf("forged-%04d", i), forged[i].Binary) == nil
			}
		}(g)
	}
	wg.Wait()
	for i, ok := range accepted {
		if ok {
			return fmt.Errorf("forged binary %d (%s) was accepted", i, forged[i].Kind)
		}
	}
	if n := len(k.Owners()); n != len(d.owners) {
		return fmt.Errorf("filter table holds %d owners after forged installs, want %d", n, len(d.owners))
	}
	return nil
}

// verdicts delivers sample to k in batches and requires each packet's
// accepting owners to be exactly those whose variant reference accepts.
func verdicts(b *bench, w *worker, k *kernel.Kernel, sample [][]byte, progs []*machine.Compiled,
	twin *kernel.Kernel, bins map[string][]byte, byBinary map[string]Variant) error {
	owners := make([]string, 0, len(bins))
	for o := range bins {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for i := 0; i < len(sample); i += batchSize {
		bt := sample[i:min(i+batchSize, len(sample))]
		out, err := b.deliver(w, k, true, bt, progs)
		if err != nil {
			return err
		}
		if twin != nil {
			if _, err := b.deliver(w, twin, false, bt, nil); err != nil {
				return err
			}
		}
		for j, p := range bt {
			var want []string
			for _, o := range owners {
				if byBinary[string(bins[o])].accepts(p) {
					want = append(want, o)
				}
			}
			got := append([]string(nil), out[j]...)
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("packet %d accepted by %v, reference %v", i+j, got, want)
			}
		}
	}
	return nil
}
