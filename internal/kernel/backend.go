// Execution-backend selection. The kernel can run validated filters
// on either of two backends with identical observable behavior:
//
//   - BackendInterp: the reference interpreter (machine.Interp).
//   - BackendCompiled: threaded code (machine.Compile), built once per
//     validated binary at install time — after the proof check — and
//     memoized on the proof-cache slot, so a fleet re-installing one
//     binary compiles it once the same way it proof-checks it once.
//
// Both backends carry per-PC cycle attribution (profile.go): the
// interpreter through machine.InterpProfiled, threaded code through
// machine.Compiled.RunProfiled, with bit-identical attribution — so
// enabling profiling never changes which backend dispatches. The
// interpreter stays authoritative: the differential suites compare
// against it, and disabling the compiled backend is a one-call
// rollback (SetBackend retrofits every installed filter in either
// direction).
package kernel

import (
	"fmt"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/machine"
	"repro/internal/store"
)

// Backend selects how dispatch executes validated filters.
type Backend int32

// The available execution backends.
const (
	// BackendInterp dispatches through the reference interpreter.
	BackendInterp Backend = iota
	// BackendCompiled dispatches through install-time-compiled
	// threaded code.
	BackendCompiled
)

// String returns the flag-friendly backend name.
func (b Backend) String() string {
	switch b {
	case BackendInterp:
		return "interp"
	case BackendCompiled:
		return "compiled"
	}
	return fmt.Sprintf("backend(%d)", int32(b))
}

// ParseBackend converts a flag value to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "interp", "interpreter":
		return BackendInterp, nil
	case "compiled", "compile":
		return BackendCompiled, nil
	}
	return 0, fmt.Errorf("kernel: unknown backend %q (want interp or compiled)", s)
}

// compiledForm returns the slot's memoized threaded-code translation,
// compiling on first use.
func (s *cacheSlot) compiledForm() (*machine.Compiled, error) {
	s.compileOnce.Do(func() { s.compiled, s.compileErr = compileFenced(s.ext.Prog) })
	return s.compiled, s.compileErr
}

// compileFenced translates a validated program to threaded code.
// Compilation analyzes untrusted (though validated) code, so it runs
// inside a recover fence like the WCET pass: a panic rejects the one
// binary, never crashes the kernel.
func compileFenced(prog []alpha.Instr) (c *machine.Compiled, err error) {
	err = pcc.Fence("compile", func() (cerr error) {
		c, cerr = machine.Compile(prog, &machine.DEC21064)
		return cerr
	})
	return c, err
}

// Backend returns the kernel's current default execution backend.
func (k *Kernel) Backend() Backend { return Backend(k.backend.Load()) }

// SetBackend switches the default backend for future installs AND
// retrofits every installed filter: switching to BackendCompiled
// compiles each installed program (an error on any filter aborts the
// switch with nothing changed); switching to BackendInterp drops the
// compiled forms, an immediate rollback path. Installed filters are
// immutable once published, so the retrofit is copy-on-write: each
// changed filter is replaced by a clone sharing its accept counter
// and profile accumulator, the new snapshot is published atomically,
// and the replaced originals are retired past in-flight deliveries —
// a dispatch in flight finishes entirely on the backend it started
// with.
//
// With a store attached the retrofit is a journaled commit (commit in
// store.go), so recovery re-applies the backend choice before it
// re-installs filters: the switch is published in journal order, after
// every install journaled before it, and a failed append or fsync
// leaves the backend as it was.
func (k *Kernel) SetBackend(b Backend) error {
	if b != BackendInterp && b != BackendCompiled {
		return fmt.Errorf("kernel: unknown backend %d", b)
	}
	// fresh holds the compiled forms built by the check, which runs
	// before the record is written so a compile failure aborts with
	// nothing journaled.
	var fresh map[*installed]*machine.Compiled
	var old Backend
	err := k.commit(&store.Record{Kind: store.KindRetrofit, Owner: retrofitBackend, Binary: []byte(b.String())}, func() error {
		if b != BackendCompiled {
			return nil
		}
		t := k.table.Load()
		fresh = make(map[*installed]*machine.Compiled, len(t.slots))
		for i := range t.slots {
			owner, f := t.slots[i].owner, t.slots[i].f
			if f.compiled != nil {
				continue
			}
			c, cerr := compileFenced(f.ext.Prog)
			if cerr != nil {
				return fmt.Errorf("kernel: compiling filter for %q: %w", owner, cerr)
			}
			fresh[f] = c
		}
		return nil
	}, func() {
		old = Backend(k.backend.Load())
		t := k.table.Load()
		nt, replaced := t.mapped(func(owner string, f *installed) *installed {
			if (f.compiled != nil) == (b == BackendCompiled) {
				return f
			}
			nf := *f
			nf.compiled = nil
			if b == BackendCompiled {
				// A filter published since the check (journaled before
				// this record) compiles now; should that fail, it stays
				// interpreted.
				c, ok := fresh[f]
				if !ok {
					c, _ = compileFenced(f.ext.Prog)
				}
				if c == nil {
					return f
				}
				nf.compiled = c
			}
			return &nf
		})
		if nt != t {
			k.publishLocked(nt, replaced...)
		}
		k.backend.Store(int32(b))
	})
	if err != nil {
		if serr, ok := err.(*StoreError); ok {
			k.audit.Load().storeError("retrofit", retrofitBackend, serr, 0)
			return fmt.Errorf("kernel: backend retrofit not journaled: %w", err)
		}
		return err
	}
	k.configChange("backend", old.String(), b.String())
	return nil
}

// runInstalled executes one installed filter on a prepared state with
// the dispatch budget. The filter's own backend decides how it runs —
// threaded code when a compiled form is attached, the interpreter
// otherwise — and profiling layers attribution onto whichever backend
// the filter has, never rerouting it. wrote reports whether the run may
// have written scratch memory (threaded code knows statically; the
// interpreter paths conservatively report true), which lets pooled
// dispatch skip the next scratch wipe.
func runInstalled(f *installed, state *machine.State, profiling bool) (res machine.Result, wrote bool, err error) {
	if profiling && f.prof != nil {
		if c := f.compiled; c != nil {
			res, err = f.prof.runCompiled(c, state, dispatchFuel)
			return res, c.WritesMemory(), err
		}
		res, err = f.prof.run(state, dispatchFuel)
		return res, true, err
	}
	if c := f.compiled; c != nil {
		res, err = c.Run(state, machine.Unchecked, dispatchFuel)
		return res, c.WritesMemory(), err
	}
	res, err = machine.Interp(f.ext.Prog, state, machine.Unchecked, &machine.DEC21064, dispatchFuel)
	return res, true, err
}
