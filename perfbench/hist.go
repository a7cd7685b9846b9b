package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: each power of two is split
// into 2^subBits buckets, so a bucket is at most 1/256 of its values.
const subBits = 8

// hist is a fixed-size log-linear latency histogram. Its memory does not
// grow with the number of ops, so a faster program does not show a
// larger rss_mb for recording more samples.
type hist struct {
	counts [(64 - subBits + 1) << subBits]uint32
	n      int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits | int(uint64(v)>>shift)&(1<<subBits-1)
}

// bucketLow is the smallest value bucket i holds.
func bucketLow(i int) float64 {
	e, m := i>>subBits, i&(1<<subBits-1)
	if e == 0 {
		return float64(m)
	}
	return float64(uint64(1<<subBits|m) << (e - 1))
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly by rank
// within its bucket, so that it is not limited to the buckets' 1/256
// steps.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := max(q*float64(h.n), 0.5)
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+int64(c)) >= rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return lo + (hi-lo)*(rank-float64(seen))/float64(c)
		}
		seen += int64(c)
	}
	return math.NaN()
}
