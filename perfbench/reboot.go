package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
)

const (
	// rebootRecords is the live set every reboot restores.
	rebootRecords = 32
	// rebootReplaced owners were first installed with another variant,
	// so the journal also holds superseded records.
	rebootReplaced = 8
)

// rebootWorkload recovers a journal the kernel wrote during set-up into
// a fresh served tenant, again and again: store open, replay, full
// re-validation of every record.
type rebootWorkload struct {
	owners []string
	live   map[string][]byte
	byBin  map[string]Variant
	sample [][]byte
	progs  []*machine.Compiled
	twin   *kernel.Kernel
	dirs   []string // one journal copy per worker

	mu        sync.Mutex
	lastStats kernel.Stats
}

func (d *rebootWorkload) served() bool { return true }

func (d *rebootWorkload) prepare(b *bench) error {
	c := b.corpus
	d.live, d.byBin = map[string][]byte{}, map[string]Variant{}
	for i, v := range c.Cold {
		o := fmt.Sprintf("owner-%02d", i)
		d.owners = append(d.owners, o)
		d.live[o] = v.Binary
		d.byBin[string(v.Binary)] = v
	}
	d.sample = trace(b.o.seed+1, batchSize)
	if !b.o.trace {
		return nil
	}
	var err error
	if d.twin, err = bareKernel(); err != nil {
		return err
	}
	var bins [][]byte
	for _, o := range d.owners {
		bins = append(bins, d.live[o])
		if err := d.twin.InstallFilterCtx(b.ctx, o, d.live[o]); err != nil {
			return err
		}
	}
	d.progs, err = compileAll(bins)
	return err
}

// setup has a served tenant write the journal through its own install
// path (replaced owners first, then the live set), gives each worker a
// copy, and warms up with one reboot.
func (d *rebootWorkload) setup(b *bench, dir string, w *worker) error {
	tn, err := servedTenant()
	if err != nil {
		return err
	}
	journal := filepath.Join(dir, "journal")
	if _, err := b.attach(w, tn, journal); err != nil {
		return err
	}
	for i, v := range b.corpus.Hot {
		if err := b.install(w, tn.Kernel, d.owners[i], v.Binary, true, true); err != nil {
			return err
		}
	}
	for _, o := range d.owners {
		if err := b.install(w, tn.Kernel, o, d.live[o], true, true); err != nil {
			return err
		}
	}
	if err := tn.CloseStore(); err != nil {
		return err
	}
	d.dirs = nil
	for i := 0; i < b.procs; i++ {
		cp := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		if err := copyDir(journal, cp); err != nil {
			return err
		}
		d.dirs = append(d.dirs, cp)
	}
	_, err = d.reboot(b, w, journal)
	return err
}

func (d *rebootWorkload) teardown() {}

func (d *rebootWorkload) op(b *bench, w *worker) {
	lat, err := d.reboot(b, w, d.dirs[w.id-1])
	w.ops++
	if err != nil {
		w.fail(err)
		return
	}
	w.record(lat, 1, false)
}

// reboot recovers dir into a fresh served tenant, checks the result,
// and returns how long the recovery took: store open until every
// filter is restored.
func (d *rebootWorkload) reboot(b *bench, w *worker, dir string) (time.Duration, error) {
	tn, err := servedTenant()
	if err != nil {
		return 0, err
	}
	defer tn.CloseStore()
	t0 := time.Now()
	rep, err := b.attach(w, tn, dir)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if rep.Restored != rebootRecords || len(rep.Skipped) != 0 {
		return 0, fmt.Errorf("reboot restored %d, skipped %d; want %d and 0", rep.Restored, len(rep.Skipped), rebootRecords)
	}
	twin := d.twin
	if w.tr == nil {
		twin = nil
	}
	if err := verdicts(b, w, tn.Kernel, d.sample, d.progs, twin, d.live, d.byBin); err != nil {
		return 0, fmt.Errorf("recovered kernel: %w", err)
	}
	d.mu.Lock()
	d.lastStats = tn.Kernel.Stats()
	d.mu.Unlock()
	return lat, nil
}

func (d *rebootWorkload) check(b *bench, w *worker) error {
	d.mu.Lock()
	b.hitRatio = hitRatio(kernel.Stats{}, d.lastStats)
	d.mu.Unlock()
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
