// Package policy defines the safety policies of the paper's two code
// consumers: the packet-filter infrastructure of §3 and the resource
// access service of §2, plus the SFI-segment policy used by the §3.1
// hybrid experiment. A policy packages the precondition ("calling
// convention"), the postcondition, and human-readable register
// conventions; the proof-formation rules ℒ it publishes are the core
// natural-deduction rules plus logic.Axioms.
//
// A note on the paper's "ri mod 2^64 = ri" conjuncts: in this
// implementation every expression already denotes a 64-bit machine
// word, so those well-formedness conjuncts are identically true and are
// omitted (see DESIGN.md, "trusted normalizer").
package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"sort"

	"repro/internal/logic"
)

// Policy is a published safety policy.
type Policy struct {
	// Name identifies the policy in PCC binaries; validation fails if
	// producer and consumer disagree.
	Name string
	// Pre is the precondition the consumer guarantees at invocation.
	Pre logic.Pred
	// Post is the postcondition required at RET (true for all of the
	// paper's experiments; tests exercise nontrivial ones).
	Post logic.Pred
	// Convention documents the register-passing convention.
	Convention string
	// Axioms are additional proof-formation rules this policy
	// publishes beyond the core set — the §3 "user-provided axioms
	// ... remembered for future sessions", made part of the contract
	// so producer and consumer agree on them by construction. The
	// consumer should vet them (see pcc.VetAxioms) before publishing:
	// an unsound axiom makes the whole guarantee vacuous.
	Axioms []*logic.Schema
}

// ExtraAxioms returns the policy's published schemas keyed by name,
// or nil.
func (p *Policy) ExtraAxioms() map[string]*logic.Schema {
	if len(p.Axioms) == 0 {
		return nil
	}
	out := make(map[string]*logic.Schema, len(p.Axioms))
	for _, s := range p.Axioms {
		out[s.Name] = s
	}
	return out
}

// Digest returns a SHA-256 digest of the policy's semantic content:
// its name, precondition, postcondition, and published axiom schemas.
// (Convention is human-readable documentation and excluded.) The
// serialization is length-framed, so no two distinct policies — even
// ones with adversarially chosen names — share a serialization, and
// equal digests mean (up to SHA-256 collision resistance) semantically
// identical policies that accept exactly the same set of PCC binaries.
// Safety-relevant identity, such as the proof-cache key in
// internal/kernel, must be derived from this full digest; see
// pcc.ValidationKey.
func (p *Policy) Digest() [sha256.Size]byte {
	h := sha256.New()
	writeString(h, p.Name)
	writePred(h, p.Pre)
	writePred(h, p.Post)
	axioms := append([]*logic.Schema(nil), p.Axioms...)
	sort.Slice(axioms, func(i, j int) bool { return axioms[i].Name < axioms[j].Name })
	writeLen(h, len(axioms))
	for _, s := range axioms {
		writeString(h, s.Name)
		writeLen(h, len(s.Params))
		for _, prm := range s.Params {
			writeString(h, prm)
		}
		writeLen(h, len(s.Prems))
		for _, prem := range s.Prems {
			writePred(h, prem)
		}
		writePred(h, s.Concl)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// Fingerprint returns the first 64 bits of Digest, for compact display
// and mismatch diagnostics. A 64-bit value admits brute-forced
// collisions, so it must never stand in for policy identity in a
// safety-relevant decision — use Digest there.
func (p *Policy) Fingerprint() uint64 {
	d := p.Digest()
	return binary.LittleEndian.Uint64(d[:8])
}

// writeLen frames a count or byte length into a digest.
func writeLen(h hash.Hash, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
}

// writeString frames a length-prefixed string into a digest.
func writeString(h hash.Hash, s string) {
	writeLen(h, len(s))
	io.WriteString(h, s)
}

// writePred frames a predicate into a digest, distinguishing nil from
// any printed form.
func writePred(h hash.Hash, pred logic.Pred) {
	if pred == nil {
		h.Write([]byte{0})
		return
	}
	h.Write([]byte{1})
	writeString(h, pred.String())
}

// Packet-filter calling convention (§3): the kernel passes the aligned
// packet address in r1, the packet length in r2, and the address of a
// 16-byte aligned scratch memory in r3; the boolean result is returned
// in r0.
const (
	RegPacket  = 1
	RegLen     = 2
	RegScratch = 3
	ScratchLen = 16
	MinPacket  = 64 // minimum Ethernet frame
)

// PacketFilter returns the §3 packet-filter safety policy:
//
//	Pre =  64 ≤ r2  ∧  r2 < 2^63
//	    ∧  ∀i. (0≤i ∧ i<r2 ∧ i&7=0) ⇒ rd(r1⊕i)
//	    ∧  ∀j. (0≤j ∧ j<16 ∧ j&7=0) ⇒ wr(r3⊕j)
//	    ∧  ∀i.∀j. (i<r2 ∧ j<16) ⇒ r1⊕i ≠ r3⊕j
//	Post = true
func PacketFilter() *Policy {
	r1 := logic.V("r1")
	r2 := logic.V("r2")
	r3 := logic.V("r3")
	i := logic.V("i")
	j := logic.V("j")

	pre := logic.Conj(
		logic.Ule(logic.C(MinPacket), r2),
		logic.Ult(r2, logic.C(1<<63)),
		logic.All("i", logic.Implies(
			logic.Conj(
				logic.Ule(logic.C(0), i),
				logic.Ult(i, r2),
				logic.Eq(logic.And2(i, logic.C(7)), logic.C(0)),
			),
			logic.RdP(logic.Add(r1, i)),
		)),
		logic.All("j", logic.Implies(
			logic.Conj(
				logic.Ule(logic.C(0), j),
				logic.Ult(j, logic.C(ScratchLen)),
				logic.Eq(logic.And2(j, logic.C(7)), logic.C(0)),
			),
			logic.WrP(logic.Add(r3, j)),
		)),
		logic.All("i", logic.All("j", logic.Implies(
			logic.Conj(
				logic.Ult(i, r2),
				logic.Ult(j, logic.C(ScratchLen)),
			),
			logic.Ne(logic.Add(r1, i), logic.Add(r3, j)),
		))),
	)

	return &Policy{
		Name: "packet-filter/v1",
		Pre:  pre,
		Post: logic.True,
		Convention: "r1: aligned packet address; r2: packet length (≥ 64); " +
			"r3: 16-byte aligned scratch; result in r0",
	}
}

// ResourceAccess returns the §2 resource-access policy over a
// two-word table entry whose address arrives in r0:
//
//	Pre_r = rd(r0) ∧ rd(r0⊕8) ∧ (sel(rm, r0) ≠ 0 ⇒ wr(r0⊕8))
//	Post  = true
//
// The tag word (at r0) is read-only; the data word (at r0⊕8) is
// writable exactly when the tag is non-zero.
func ResourceAccess() *Policy {
	r0 := logic.V("r0")
	rm := logic.V("rm")
	pre := logic.Conj(
		logic.RdP(r0),
		logic.RdP(logic.Add(r0, logic.C(8))),
		logic.Implies(
			logic.Ne(logic.SelE(rm, r0), logic.C(0)),
			logic.WrP(logic.Add(r0, logic.C(8))),
		),
	)
	return &Policy{
		Name:       "resource-access/v1",
		Pre:        pre,
		Post:       logic.True,
		Convention: "r0: aligned address of the {tag, data} table entry",
	}
}

// Semaphore returns the §2 "more involved safety requirements"
// policy: the table entry's tag word (at r0) is a semaphore the
// extension may manipulate, the data word (at r0⊕8) is its payload,
// and a simple postcondition requires that "the code releases the
// semaphore before returning":
//
//	Pre  = rd(r0) ∧ wr(r0) ∧ wr(r0⊕8)
//	Post = sel(rm, r0) = 0
//
// This is the paper's example of a policy "more abstract and
// fine-grained than memory protection": certification fails for any
// extension that can return with the lock held, with no run-time
// lock-leak detection needed.
func Semaphore() *Policy {
	r0 := logic.V("r0")
	pre := logic.Conj(
		logic.RdP(r0),
		logic.WrP(r0),
		logic.WrP(logic.Add(r0, logic.C(8))),
	)
	return &Policy{
		Name:       "semaphore/v1",
		Pre:        pre,
		Post:       logic.Eq(logic.SelE(logic.V("rm"), r0), logic.C(0)),
		Convention: "r0: aligned address of the {semaphore, data} entry; semaphore must be 0 at RET",
	}
}

// SFISegmentSize is the sandbox segment size of the §3.1 SFI
// experiment.
const SFISegmentSize = 2048

// SFISegment returns the §3.1 policy for SFI-rewritten filters: the
// kernel allocates packets on a 2048-byte boundary and the filter may
// read anywhere in the packet's segment and write anywhere in the
// scratch segment:
//
//	Pre =  ∀i. (i<2048 ∧ i&7=0) ⇒ rd((r1 & ~2047) ⊕ i)
//	    ∧  ∀j. (j<2048 ∧ j&7=0) ⇒ wr((r3 & ~2047) ⊕ j)
//	Post = true
func SFISegment() *Policy {
	mask := ^uint64(SFISegmentSize - 1)
	r1 := logic.V("r1")
	r3 := logic.V("r3")
	i := logic.V("i")
	j := logic.V("j")
	pre := logic.Conj(
		logic.All("i", logic.Implies(
			logic.Conj(
				logic.Ult(i, logic.C(SFISegmentSize)),
				logic.Eq(logic.And2(i, logic.C(7)), logic.C(0)),
			),
			logic.RdP(logic.Add(logic.And2(r1, logic.C(mask)), i)),
		)),
		logic.All("j", logic.Implies(
			logic.Conj(
				logic.Ult(j, logic.C(SFISegmentSize)),
				logic.Eq(logic.And2(j, logic.C(7)), logic.C(0)),
			),
			logic.WrP(logic.Add(logic.And2(r3, logic.C(mask)), j)),
		)),
	)
	return &Policy{
		Name:       "sfi-segment/v1",
		Pre:        pre,
		Post:       logic.True,
		Convention: "r1: packet address (2048-byte segment); r3: scratch segment address",
	}
}

// ByName returns the built-in policy with the given name, for the
// loader tools.
func ByName(name string) (*Policy, error) {
	switch name {
	case "packet-filter/v1":
		return PacketFilter(), nil
	case "resource-access/v1":
		return ResourceAccess(), nil
	case "sfi-segment/v1":
		return SFISegment(), nil
	case "semaphore/v1":
		return Semaphore(), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}
