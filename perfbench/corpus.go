package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/pccbin"
	"repro/internal/pktgen"
)

// A shape is one of the paper's four filters with its compared
// immediate made a parameter: Filter 1's ethertype literal, the first
// octet of Filter 2's source net, the first octet of Filter 3's second
// net, and Filter 4's destination port.
type shape int

const numShapes = 4

// Variant is one certified filter: a shape, the seeded constant that
// replaces its compared immediate, and the PCC binary pcc.Certify made.
type Variant struct {
	Shape  int
	Const  uint16
	Binary []byte
}

// Forgery is a well-formed binary whose proof does not prove its code
// safe: Kind "tt" replaces a variant's proof by the trivial proof,
// "graft" pairs a variant's code with a proof of another shape.
type Forgery struct {
	Kind   string
	Binary []byte
}

// Corpus is every input one workload needs, made from the seed alone.
type Corpus struct {
	Seed   int64
	Paper  [][]byte // the four paper filters, certified unchanged
	Cold   []Variant
	Hot    []Variant
	Forged []Forgery
}

// Pool is every certified variant a corpus draws from: the paper's four
// filters and poolPerShape variants of each shape. It depends on no
// seed, so certification, the slow part, runs once per build.
type Pool struct {
	Paper    [][]byte
	Variants [][]Variant // by shape
}

// poolPerShape covers every octet constant of shapes 0–2, enough for the
// 132 variants of each shape an install corpus draws.
const poolPerShape = 256

// corpusSizes says how many inputs of each class a corpus holds.
type corpusSizes struct {
	cold, hot int
	forged    bool
}

// sizesFor returns what a workload draws from the pool. The cold pool
// of the install workload is twice the kernel's 256-entry proof cache,
// so in cyclic order every cold install misses; the hot set is small
// enough to stay cached. The reboot workload journals its replaced
// owners from Hot and its 32 live owners from Cold.
func sizesFor(workload string) corpusSizes {
	switch workload {
	case "install":
		return corpusSizes{cold: 512, hot: 16, forged: true}
	case "reboot":
		return corpusSizes{cold: rebootRecords, hot: rebootReplaced}
	}
	return corpusSizes{}
}

// variantSource rewrites a paper filter's source so it compares against
// c instead of its original immediate.
func variantSource(s shape, c uint16) string {
	src := filters.Source(filters.All[s])
	var old, repl string
	switch s {
	case 0:
		old, repl = "CMPEQ  r4, 8, r0", fmt.Sprintf("CMPEQ  r4, %d, r0", c)
	case 1:
		old, repl = "BIS    r5, 0x80, r5", fmt.Sprintf("BIS    r5, %d, r5", c)
	case 2:
		old, repl = "BIS    r3, 0xC0, r3", fmt.Sprintf("BIS    r3, %d, r3", c)
	case 3:
		// The filter reads the port field little-endian.
		old, repl = "MOVI   0x5000, r5", fmt.Sprintf("MOVI   %d, r5", c>>8|c<<8)
	}
	if strings.Count(src, old) != 1 {
		panic(fmt.Sprintf("perfbench: shape %d source lost its immediate %q", s, old))
	}
	return strings.Replace(src, old, repl, 1)
}

// poolConstants returns n distinct constants for shape s: octets for
// shapes 0–2, and for shape 3 ports drawn with a fixed seed whose low
// octet stays below 0x80, so the byte-swapped MOVI immediate is positive.
func poolConstants(s shape, n int) []uint16 {
	if s != 3 {
		ks := make([]uint16, n)
		for i := range ks {
			ks[i] = uint16(i)
		}
		return ks
	}
	var ks []uint16
	for _, i := range rand.New(rand.NewSource(1)).Perm(1 << 15)[:n] {
		ks = append(ks, uint16(i>>7)<<8|uint16(i&0x7f))
	}
	return ks
}

// certifyPool certifies the paper filters and perShape variants of each
// shape. Certification takes about 15 ms a binary, so it fans out over
// workers; results land by index, so the pool does not depend on
// scheduling.
func certifyPool(perShape, workers int) (*Pool, error) {
	p := &Pool{Paper: make([][]byte, numShapes), Variants: make([][]Variant, numShapes)}
	type job struct {
		src string
		out *[]byte
	}
	var jobs []job
	for s := shape(0); s < numShapes; s++ {
		jobs = append(jobs, job{filters.Source(filters.All[s]), &p.Paper[s]})
		p.Variants[s] = make([]Variant, perShape)
		for i, k := range poolConstants(s, perShape) {
			p.Variants[s][i] = Variant{Shape: int(s), Const: k}
			jobs = append(jobs, job{variantSource(s, k), &p.Variants[s][i].Binary})
		}
	}
	pol := pcc.PacketFilterPolicy()
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cert, err := pcc.Certify(jobs[i].src, pol, nil)
				if err == nil {
					*jobs[i].out = cert.Binary
				}
				errs[i] = err
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("certify: %w", err)
		}
	}
	return p, nil
}

// drawCorpus makes the seed's corpus from the pool. Each shape
// contributes a quarter of each class, drawn without replacement, so no
// two variants share a binary; variant i has shape i%numShapes.
func drawCorpus(p *Pool, seed int64, sz corpusSizes) (*Corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Seed: seed, Paper: p.Paper, Cold: make([]Variant, sz.cold), Hot: make([]Variant, sz.hot)}
	nc, nh := sz.cold/numShapes, sz.hot/numShapes
	for s := 0; s < numShapes; s++ {
		if nc+nh > len(p.Variants[s]) {
			return nil, fmt.Errorf("pool holds %d variants of shape %d, corpus needs %d", len(p.Variants[s]), s, nc+nh)
		}
		perm := rng.Perm(len(p.Variants[s]))
		for i := 0; i < nc; i++ {
			c.Cold[i*numShapes+s] = p.Variants[s][perm[i]]
		}
		for i := 0; i < nh; i++ {
			c.Hot[i*numShapes+s] = p.Variants[s][perm[nc+i]]
		}
	}
	if sz.forged {
		all := append(append([]Variant{}, c.Hot...), c.Cold...)
		for i, v := range all {
			tt, err := withProof(v.Binary, nil)
			if err != nil {
				return nil, err
			}
			// Graft the proof of a seeded neighbour of another shape:
			// shapes repeat with period numShapes along all.
			donor := all[(i+1+rng.Intn(numShapes-1))%len(all)]
			g, err := withProof(v.Binary, donor.Binary)
			if err != nil {
				return nil, err
			}
			c.Forged = append(c.Forged, Forgery{"tt", tt}, Forgery{"graft", g})
		}
	}
	return c, nil
}

// withProof re-marshals bin with the proof (and proof symbols) of donor,
// or with the trivial proof truei when donor is nil.
func withProof(bin, donor []byte) ([]byte, error) {
	b, err := pccbin.Unmarshal(bin)
	if err != nil {
		return nil, fmt.Errorf("forge: %w", err)
	}
	if donor == nil {
		b.Proof = lf.Konst{Name: lf.CTrueI}
	} else {
		d, err := pccbin.Unmarshal(donor)
		if err != nil {
			return nil, fmt.Errorf("forge: %w", err)
		}
		b.Proof = d.Proof
	}
	out, _, err := b.Marshal()
	if err != nil {
		return nil, fmt.Errorf("forge: %w", err)
	}
	return out, nil
}

// encodeGob is the on-disk form of pools and the tests' corpus
// comparisons; gob over slices and structs is deterministic, so equal
// values encode to equal bytes.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return buf.Bytes(), nil
}

// sourceDigest fingerprints the code that made a corpus: the running
// executable, which changes whenever any source it was built from does.
func sourceDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// loadCorpus returns the corpus for (workload, seed). The pool it
// draws from is certified in a child process on a cache miss, so
// certification's memory never shows in this process's peak RSS and its
// time stays out of every metric; the cache is keyed by a digest of the
// executable, so a source change re-certifies.
func loadCorpus(cacheDir, workload string, seed int64) (*Corpus, error) {
	dig, err := sourceDigest()
	if err != nil {
		return nil, fmt.Errorf("source digest: %w", err)
	}
	path := filepath.Join(cacheDir, "pool-"+dig+".gob")
	data, err := os.ReadFile(path)
	if err != nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "-gen-pool", path)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("certify pool: %w", err)
		}
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var p Pool
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, fmt.Errorf("decode pool: %w", err)
	}
	return drawCorpus(&p, seed, sizesFor(workload))
}

// writePool is the child process's half of loadCorpus.
func writePool(path string, workers int) error {
	p, err := certifyPool(poolPerShape, workers)
	if err != nil {
		return err
	}
	data, err := encodeGob(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// trace returns n packets of the default campus mix, seeded.
func trace(seed int64, n int) [][]byte {
	pkts := pktgen.Generate(n, pktgen.Config{Seed: uint64(seed)})
	out := make([][]byte, n)
	for i, p := range pkts {
		out[i] = p.Data
	}
	return out
}

// accepts is the Go reference for a variant: filters.Reference's logic
// with the variant's constant in place of the paper's.
func (v Variant) accepts(p []byte) bool {
	be16 := func(off int) (uint16, bool) {
		if off < 0 || off+2 > len(p) {
			return 0, false
		}
		return binary.BigEndian.Uint16(p[off:]), true
	}
	net := func(off int) (uint32, bool) {
		if off < 0 || off+3 > len(p) {
			return 0, false
		}
		return uint32(p[off])<<16 | uint32(p[off+1])<<8 | uint32(p[off+2]), true
	}
	et, ok := be16(12)
	if !ok {
		return false
	}
	switch v.Shape {
	case 0:
		// The filter compares the little-endian ethertype with a literal.
		return uint16(p[12])|uint16(p[13])<<8 == v.Const
	case 1:
		src, ok := net(26)
		return et == pktgen.EtherTypeIP && ok && src == uint32(v.Const)<<16|2<<8|42
	case 2:
		a, b := uint32(128)<<16|2<<8|42, uint32(v.Const)<<16|12<<8|33
		var so, do int
		switch et {
		case pktgen.EtherTypeIP:
			so, do = 26, 30
		case pktgen.EtherTypeARP:
			so, do = 28, 38
		default:
			return false
		}
		src, ok1 := net(so)
		dst, ok2 := net(do)
		return ok1 && ok2 && (src == a && dst == b || src == b && dst == a)
	default:
		if et != pktgen.EtherTypeIP || len(p) < 24 || p[23] != pktgen.ProtoTCP {
			return false
		}
		port, ok := be16(14 + 4*int(p[14]&0x0f) + 2)
		return ok && port == v.Const
	}
}
