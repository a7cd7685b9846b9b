// Proof cache: content-addressed memoization of successful
// validations. The paper's Figure 9 argument is that proof checking is
// a one-time cost; at consumer scale the same extension binary is
// installed over and over (many users shipping the same filter), so
// the kernel memoizes Validate by SHA-256 of (binary bytes, policy
// content digest) — see pcc.ValidationKey — and a re-install of an
// already-verified extension skips VC generation and LF checking
// entirely.
//
// Only *successful* validations are cached: a rejected binary is never
// remembered, so tampered or truncated blobs re-validate (and re-fail)
// every time and cannot poison the cache. Because the policy's full
// SHA-256 content digest is part of the key (a truncated fingerprint
// would admit engineered cross-policy collisions), an entry cached
// under one policy is invisible to validation under any other.
package kernel

import (
	"container/list"
	"sync"

	pcc "repro"
	"repro/internal/machine"
)

// cacheKey is pcc.ValidationKey's output: SHA-256 of binary + policy
// fingerprints.
type cacheKey [32]byte

// DefaultCacheSize is the proof-cache capacity (entries) of kernels
// built with New.
const DefaultCacheSize = 256

// proofCache is a thread-safe LRU of validated extensions. Its lock is
// held only for map/list maintenance — never across a validation — so
// the validation stage of the pipeline stays effectively lock-free.
type proofCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions int64
}

// cacheSlot is one validated extension plus everything derived purely
// from it. Slots are immutable after construction (validate in
// pipeline.go) — the threaded-code form below is the one lazily derived
// field, write-once behind its sync.Once — so readers need no lock.
type cacheSlot struct {
	key cacheKey
	ext *pcc.Extension
	// wcet is the static worst-case cost bound of ext.Prog, computed
	// lock-free at validation time; wcetErr records why no bound
	// exists (e.g. a loop), in which case budgeted installs reject.
	wcet    int64
	wcetErr error
	// compiled is the memoized threaded-code translation of ext.Prog,
	// built on the first BackendCompiled install that commits this
	// slot (compiledForm in backend.go). Cache hits reuse it, so a
	// re-install compiles as rarely as it proof-checks.
	compileOnce sync.Once
	compiled    *machine.Compiled
	compileErr  error
}

func newProofCache(max int) *proofCache {
	return &proofCache{
		max:     max,
		entries: map[cacheKey]*list.Element{},
		order:   list.New(),
	}
}

// lookup returns the cached slot for key, or nil. It does no hit/miss
// accounting: an install attempt may probe several candidate policies,
// and the kernel records at most one hit or one miss per attempt
// (recordHit/recordMiss), so the hit rate reflects installs, not
// probes.
func (c *proofCache) lookup(key cacheKey) *cacheSlot {
	if c == nil || c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheSlot)
}

// recordHit counts one install attempt served from the cache.
func (c *proofCache) recordHit() {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
}

// recordMiss counts one install attempt that found no cached candidate.
func (c *proofCache) recordMiss() {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
}

// put records a successful validation, evicting the least recently
// used entries when over capacity; evicted reports how many (so the
// caller can feed telemetry without re-taking the cache lock).
func (c *proofCache) put(slot *cacheSlot) (kept *cacheSlot, evicted int64) {
	if c == nil || c.max <= 0 {
		return slot, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[slot.key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheSlot), 0
	}
	c.entries[slot.key] = c.order.PushFront(slot)
	for c.order.Len() > c.max {
		back := c.order.Back()
		delete(c.entries, back.Value.(*cacheSlot).key)
		c.order.Remove(back)
		c.evictions++
		evicted++
	}
	return slot, evicted
}

// counters snapshots the accounting.
func (c *proofCache) counters() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// len reports the live entry count (tests).
func (c *proofCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
