package pcc

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// TestProofMemoBounded: recording 257 distinct proofs leaves at most
// 256 entries, the last one among them; re-recording a known proof in
// a full memo clears nothing.
func TestProofMemoBounded(t *testing.T) {
	var m proofMemo
	key := func(i int) [sha256.Size]byte {
		var k [sha256.Size]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		return k
	}
	lim := DefaultLimits()
	for i := 0; i < maxCheckedProofs; i++ {
		m.record(key(i), checkedProof{limits: lim, steps: i})
	}
	m.record(key(7), checkedProof{limits: lim, steps: 7})
	if len(m.m) != maxCheckedProofs {
		t.Fatalf("re-recording a known proof left %d entries, want %d", len(m.m), maxCheckedProofs)
	}
	m.record(key(maxCheckedProofs), checkedProof{limits: lim, steps: maxCheckedProofs})
	if len(m.m) > maxCheckedProofs {
		t.Fatalf("%d distinct proofs left %d entries, bound %d", maxCheckedProofs+1, len(m.m), maxCheckedProofs)
	}
	if e, ok := m.lookup(key(maxCheckedProofs), lim); !ok || e.steps != maxCheckedProofs {
		t.Fatalf("the last proof recorded is not served: %+v, %v", e, ok)
	}
	lim.MaxCheckSteps--
	if _, ok := m.lookup(key(maxCheckedProofs), lim); ok {
		t.Fatal("an entry served other limits")
	}
}

// TestNewKeyerAllocatesNoMemo: a keyer makes its memo's map on the
// first record, so the throwaway keyer of ValidationKey costs none.
func TestNewKeyerAllocatesNoMemo(t *testing.T) {
	if ky := NewKeyer(PacketFilterPolicy()); ky.memo.m != nil {
		t.Fatal("NewKeyer made the memo's map")
	}
}
