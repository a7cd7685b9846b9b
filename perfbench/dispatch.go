package main

import (
	"fmt"
	"time"

	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/machine"
)

const (
	// batchSize is the DeliverPackets vector length of every workload.
	batchSize = 256
	// dispatchBatches is the trace length in batches: 64 Ki packets,
	// replayed cyclically by every worker.
	dispatchBatches = 256
)

// dispatchWorkload sends the seeded trace in batches through the
// paper's four filters: bare (compiled backend, no observers), or
// observed (the full served posture, store attached).
type dispatchWorkload struct {
	observed bool
	owners   []string
	batches  [][][]byte
	ref      [][]int // ref[batch][filter]: filters.Reference accepts
	progs    []*machine.Compiled
	twin     *kernel.Kernel // traced: the same filters, other posture
	k        *kernel.Kernel
	tn       *kernel.Tenant
}

type dispatchState struct {
	next   int
	counts []int64 // deliveries of each batch
}

func (d *dispatchWorkload) served() bool { return d.observed }

func (d *dispatchWorkload) prepare(b *bench) error {
	for _, f := range filters.All {
		d.owners = append(d.owners, f.String())
	}
	pkts := trace(b.o.seed, dispatchBatches*batchSize)
	for i := 0; i < len(pkts); i += batchSize {
		bt := pkts[i : i+batchSize]
		ref := make([]int, len(filters.All))
		for _, p := range bt {
			for f, flt := range filters.All {
				if filters.Reference(flt, p) {
					ref[f]++
				}
			}
		}
		d.batches = append(d.batches, bt)
		d.ref = append(d.ref, ref)
	}
	if !b.o.trace {
		return nil
	}
	var err error
	if d.progs, err = compileAll(b.corpus.Paper); err != nil {
		return err
	}
	if d.observed {
		d.twin, err = bareKernel()
	} else {
		var tn *kernel.Tenant
		tn, err = servedTenant()
		if tn != nil {
			d.twin = tn.Kernel
		}
	}
	if err != nil {
		return err
	}
	for i, bin := range b.corpus.Paper {
		if err := d.twin.InstallFilterCtx(b.ctx, d.owners[i], bin); err != nil {
			return err
		}
	}
	return nil
}

func (d *dispatchWorkload) setup(b *bench, dir string, w *worker) error {
	var k *kernel.Kernel
	if d.observed {
		tn, err := servedTenant()
		if err != nil {
			return err
		}
		d.tn, k = tn, tn.Kernel
		if _, err := b.attach(w, tn, dir); err != nil {
			return err
		}
	} else {
		var err error
		if k, err = bareKernel(); err != nil {
			return err
		}
	}
	for i, bin := range b.corpus.Paper {
		if err := b.install(w, k, d.owners[i], bin, true, d.observed); err != nil {
			return err
		}
	}
	// Warm-up: one pass over the trace fills the state pools and
	// compiled-code caches.
	for _, bt := range d.batches {
		if _, err := k.DeliverPackets(bt); err != nil {
			return err
		}
	}
	d.k = k
	return nil
}

func (d *dispatchWorkload) teardown() {
	if d.tn != nil {
		d.tn.CloseStore()
	}
	d.k, d.tn = nil, nil
}

func (d *dispatchWorkload) op(b *bench, w *worker) {
	st, _ := w.state.(*dispatchState)
	if st == nil {
		st = &dispatchState{next: (w.id - 1) * len(d.batches) / b.procs, counts: make([]int64, len(d.batches))}
		w.state = st
	}
	i := st.next
	st.next = (i + 1) % len(d.batches)
	t0 := time.Now()
	_, err := b.deliver(w, d.k, d.observed, d.batches[i], d.progs)
	lat := time.Since(t0)
	w.ops++
	if err != nil {
		w.fail(err)
		return
	}
	st.counts[i]++
	w.record(lat, len(d.batches[i]), false)
	if w.tr != nil {
		if _, err := b.deliver(w, d.twin, !d.observed, d.batches[i], nil); err != nil {
			w.fail(err)
		}
	}
}

// check compares each owner's accept counter with the reference count
// over every packet delivered: the warm-up pass plus each batch as many
// times as the workers delivered it.
func (d *dispatchWorkload) check(b *bench, w *worker) error {
	want := make([]int64, len(d.owners))
	for i, ref := range d.ref {
		n := int64(1)
		for _, wk := range b.workers {
			if st, ok := wk.state.(*dispatchState); ok {
				n += st.counts[i]
			}
		}
		for f := range want {
			want[f] += n * int64(ref[f])
		}
	}
	got := d.k.Accepts()
	for f, o := range d.owners {
		if int64(got[o]) != want[f] {
			return fmt.Errorf("%s accepted %d packets, reference %d", o, got[o], want[f])
		}
	}
	b.hitRatio = hitRatio(kernel.Stats{}, d.k.Stats())
	return nil
}

// attach opens the tenant's store in dir and recovers it, as a served
// tenant boots.
func (b *bench) attach(w *worker, tn *kernel.Tenant, dir string) (*kernel.RecoveryReport, error) {
	return b.recover(w, "kernel.AttachStore", func() (*kernel.RecoveryReport, error) {
		return tn.AttachStore(b.ctx, dir, servedStore)
	}, dir)
}
