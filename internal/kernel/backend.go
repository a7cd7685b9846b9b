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
func (k *Kernel) SetBackend(b Backend) error {
	if b != BackendInterp && b != BackendCompiled {
		return fmt.Errorf("kernel: unknown backend %d", b)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	old := Backend(k.backend.Load())
	t := k.table.Load()
	var nt *filterTable
	var replaced []*installed
	if b == BackendCompiled {
		// Two passes so a compile failure aborts with nothing changed.
		fresh := make(map[string]*machine.Compiled, len(t.slots))
		for i := range t.slots {
			owner, f := t.slots[i].owner, t.slots[i].f
			if f.compiled != nil {
				continue
			}
			c, cerr := compileFenced(f.ext.Prog)
			if cerr != nil {
				return fmt.Errorf("kernel: compiling filter for %q: %w", owner, cerr)
			}
			fresh[owner] = c
		}
		nt, replaced = t.mapped(func(owner string, f *installed) *installed {
			c, ok := fresh[owner]
			if !ok {
				return f
			}
			nf := *f
			nf.compiled = c
			return &nf
		})
	} else {
		nt, replaced = t.mapped(func(owner string, f *installed) *installed {
			if f.compiled == nil {
				return f
			}
			nf := *f
			nf.compiled = nil
			return &nf
		})
	}
	if nt != t {
		k.publishLocked(nt, replaced...)
	}
	k.backend.Store(int32(b))
	// Journal the retrofit so recovery re-applies the backend choice
	// before it re-installs filters. The switch itself already happened;
	// an append failure is reported (audited) but does not undo it — the
	// backend is a performance choice, not a safety property, so the
	// worst a lost record costs is a post-recovery interpreter.
	if st := k.wal.Load(); st != nil {
		if _, jerr := st.Append(store.KindRetrofit, retrofitBackend, []byte(b.String())); jerr != nil {
			k.audit.Load().storeError("retrofit", retrofitBackend, &StoreError{Op: "append", Err: jerr}, 0)
		}
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
