package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-size log-bucketed latency histogram: each power-of-two
// range of nanoseconds is split into 128 linear sub-buckets, so a bucket is
// at most 1/128 (< 1%) of its value wide. Its size never grows with the
// number of samples, which keeps client memory flat however fast the server
// answers.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = (64 - subBits + 1) * subCount
)

func bucketOf(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subCount + int(v>>shift) - subCount
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (low, width uint64) {
	if i < 2*subCount {
		return uint64(i), 1
	}
	shift := i/subCount - 1
	return uint64(i%subCount+subCount) << shift, 1 << shift
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly by
// rank inside its bucket; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			low, width := bucketRange(i)
			return float64(low) + float64(width)*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	return math.NaN() // unreachable: rank < n
}
