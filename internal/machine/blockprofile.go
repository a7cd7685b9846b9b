// Per-basic-block profiling for the compiled backend. The interpreter
// profiles by noting every retired instruction (machine.Profile); that
// per-op discipline would forfeit the compiled backend's speed, so the
// threaded-code runner instead counts whole blocks: one increment per
// retired block, one per taken conditional edge, and per-op attribution
// only on the rare slow path (fuel-bounded runs, faults). The counters
// expand to exactly the interpreter's per-PC profile at flush time,
// because every block's per-PC costs were fixed at compile time.
package machine

// blockSink receives execution attribution from the compiled runner.
// It is a type parameter of crun/crunSlow. Go compiles a generic
// function once per GC shape, not once per type argument, and the
// shaped body reaches the sink's methods through a dictionary: neither
// instantiation is specialized, and their method calls are not
// inlined. So the unprofiled instantiation (noSink) still makes a call
// per retired block — noSink.fullBlock and noSink.condBlock show up as
// frames of their own in a CPU profile of bare dispatch — and the
// profiled one (*BlockProfile) pays one dictionary call per retired
// block, which is why the conditional-block case is a single fused
// method instead of a completion call plus an edge call.
type blockSink interface {
	// fullBlock: the block at index bi retired completely on the fast
	// path — whole body plus terminator, if any (non-cond blocks).
	fullBlock(bi int)
	// condBlock: the blockCond at bi retired completely and picked its
	// edge; taken reports the program-order branch-taken edge (not the
	// fall-through).
	condBlock(bi int, taken bool)
	// note: one op retired on the slow path (body op or terminator),
	// already in per-PC terms.
	note(pc int32, cost int64)
	// partial: the block at bi faulted inside a fused group on the
	// fast path after retiring its first n unfused body ops.
	partial(bi int, n int32)
}

// noSink is the instantiation used by Run: it records nothing.
type noSink struct{}

func (noSink) fullBlock(int)       {}
func (noSink) condBlock(int, bool) {}
func (noSink) note(int32, int64)   {}
func (noSink) partial(int, int32)  {}

// BlockProfile accumulates compiled-backend execution counts for one
// Compiled program. It is NOT safe for concurrent use (one runner at a
// time); callers pool them per dispatch slot and merge into shared
// atomic accumulators at batch flush. The representation is two flat
// arenas indexed by block id plus a per-PC overflow profile for
// slow-path and fault attribution.
type BlockProfile struct {
	c       *Compiled
	entries []int64  // fast-path completions per block
	taken   []int64  // taken-edge count per blockCond (subset of entries)
	part    *Profile // exact per-PC attribution from slow paths and faults
}

// NewBlockProfile returns an empty profile sized for c.
func NewBlockProfile(c *Compiled) *BlockProfile {
	return &BlockProfile{
		c:       c,
		entries: make([]int64, len(c.blocks)),
		taken:   make([]int64, len(c.blocks)),
		part:    NewProfile(len(c.prog)),
	}
}

// For reports whether bp was built for exactly this Compiled — pooled
// profiles must be discarded when the installed compiled form is
// swapped (SetBackend retrofits), since block ids are meaningless
// across compiles.
func (bp *BlockProfile) For(c *Compiled) bool { return bp != nil && bp.c == c }

// Reset zeroes all counters, keeping the arenas.
func (bp *BlockProfile) Reset() {
	for i := range bp.entries {
		bp.entries[i] = 0
		bp.taken[i] = 0
	}
	bp.part.Reset()
}

// blockSink implementation: the profiled instantiation of crun.

func (bp *BlockProfile) fullBlock(bi int) { bp.entries[bi]++ }

func (bp *BlockProfile) condBlock(bi int, taken bool) {
	bp.entries[bi]++
	if taken {
		bp.taken[bi]++
	}
}

func (bp *BlockProfile) note(pc int32, cost int64) { bp.part.note(int(pc), cost) }

func (bp *BlockProfile) partial(bi int, n int32) {
	b := &bp.c.blocks[bi]
	for i := 0; i < int(n); i++ {
		bp.part.note(int(b.pcs[i]), b.costs[i])
	}
}

// AddTo expands the block counters to per-PC visit/cycle attribution
// and adds them (plus the slow-path overflow) into p, which must be at
// least as long as the compiled program. The expansion inverts the
// fast path's accounting exactly: each completed block contributes one
// visit per body PC at its static cost, and its terminator's cost by
// edge — so the merged profile is indistinguishable from the
// interpreter's for the same runs. Runs are not tracked here; the
// caller owns run counting.
func (bp *BlockProfile) AddTo(p *Profile) {
	for bi := range bp.c.blocks {
		e := bp.entries[bi]
		if e == 0 {
			continue
		}
		b := &bp.c.blocks[bi]
		for i, pc := range b.pcs {
			p.Visits[pc] += e
			p.Cycles[pc] += e * b.costs[i]
		}
		switch b.kind {
		case blockJump, blockRet:
			p.Visits[b.termPC] += e
			p.Cycles[b.termPC] += e * b.costTaken
		case blockCond:
			t := bp.taken[bi]
			p.Visits[b.termPC] += e
			p.Cycles[b.termPC] += t*b.costTaken + (e-t)*b.costNot
		}
	}
	for pc, v := range bp.part.Visits {
		if v != 0 {
			p.Visits[pc] += v
			p.Cycles[pc] += bp.part.Cycles[pc]
		}
	}
}
