package core

import (
	"fmt"
	"sort"
)

// This file is the quantized scan lane of the Euclidean scheme: a full
// approximate pass over the int8 shadow copy of the collection picks an
// oversampled candidate pool, and the pool is re-scored by the exact
// candidate-restricted path. The approximate distances decide only which
// images survive into the pool — every returned score comes from the exact
// scorer, bit-identical to the exhaustive RankTop score of the same image.

// DefaultQuantizedOversample is the survivor multiplier used when a caller
// passes oversample <= 0: the approximate pass keeps the top k*oversample
// images for exact re-scoring. 4 holds recall@20 above 0.99 on the
// synthetic evaluation collections (see EXPERIMENTS.md) with the exact
// re-score still touching only a small fraction of the collection.
const DefaultQuantizedOversample = 4

// quantScanChunk is the row granularity of the approximate pass between
// cancellation checks.
const quantScanChunk = 4096

// RankTopQuantized ranks by exact (negative) Euclidean distance the images
// an approximate int8 scan selects: the whole collection is scanned over
// the batch's quantized shadow copy, the k*oversample images with the
// smallest approximate distance survive (oversample <= 0 selects
// DefaultQuantizedOversample), and the survivors are re-scored exactly —
// appending the top k to dst with scores bit-identical to RankTopAppend's.
// Survivorship is approximate: an image whose exact rank is within the top
// k can be missed when its approximate distance falls outside the
// oversampled pool, which the oversampling margin makes rare (the recall
// floor is pinned by the evaluation tests).
func (e Euclidean) RankTopQuantized(ctx *QueryContext, k, oversample int, dst []Ranked) ([]Ranked, error) {
	if err := validateEuclidean(ctx); err != nil {
		return nil, err
	}
	if oversample <= 0 {
		oversample = DefaultQuantizedOversample
	}
	b := ctx.collectionBatch()
	qs := b.QuantizedVisualSet()
	n := qs.Len()
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		if dst == nil {
			dst = []Ranked{}
		}
		return dst, nil
	}
	m := k * oversample
	if m > n || m < 0 { // m < 0: k*oversample overflowed
		m = n
	}

	q := b.queryVector(ctx.Query)
	sc := b.scratchGet()
	sel := &sc.sel
	sel.reset(m)
	for lo := 0; lo < n; lo += quantScanChunk {
		if ctx.Ctx != nil {
			if err := ctx.Ctx.Err(); err != nil {
				b.scratchPut(sc)
				return nil, err
			}
		}
		hi := lo + quantScanChunk
		if hi > n {
			hi = n
		}
		approx := sc.lane(0, hi-lo)
		qs.ApproxSquaredDistances(q, lo, approx)
		for i, d := range approx {
			// Negated: the selector keeps the highest scores, and the
			// candidates we want are the smallest approximate distances.
			sel.push(lo+i, -d)
		}
	}
	survivors := make([]int32, 0, m)
	for _, c := range sel.h {
		survivors = append(survivors, int32(c.Index))
	}
	b.scratchPut(sc)
	if len(survivors) == 0 {
		return nil, fmt.Errorf("core: quantized scan selected no candidates for k=%d", k)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })

	// TailStart = n: no always-exact tail, the survivor list is the whole
	// candidate set. The exact path re-scores each survivor with the
	// exhaustive scan's arithmetic.
	cands := CandidateSet{Lists: [][]int32{survivors}, TailStart: n}
	return e.RankTopCandidates(ctx, cands, k, dst)
}

// QuantizedSetBytes reports the memory footprint of the batch's quantized
// shadow copy in bytes (codes only), for capacity accounting and the
// server's status endpoint.
func QuantizedSetBytes(ctx *QueryContext) int {
	qs := ctx.collectionBatch().QuantizedVisualSet()
	return qs.Len() * qs.Dim()
}
