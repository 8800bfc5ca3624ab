package core

import (
	"sync"
	"sync/atomic"

	"lrfcsvm/internal/kernel"
)

// This file is the candidate-restricted twin of the streaming selection path
// (rankTopRanges): instead of scanning every shard, it scores only an
// explicit candidate set — the member lists of probed IVF cells plus an
// always-scanned "unindexed tail" of images appended after the index was
// built. Candidates are grouped into maximal contiguous runs inside their
// shards and scored through the same range scorers as the exhaustive path
// (same arithmetic on the same memory, via a reusable DenseSet view), so the
// score of every candidate is bit-identical to what the exhaustive scan
// would give it: pruning decides which images are considered, never how the
// considered images are ordered.

// CandidateSet names the images a pruned ranking pass may consider.
type CandidateSet struct {
	// Lists holds groups of global image indices, each strictly ascending.
	// The groups must be pairwise disjoint and every index must lie in
	// [0, TailStart) — the IVF cell member lists satisfy both by
	// construction (cells partition the indexed prefix).
	Lists [][]int32
	// TailStart is the start of the unindexed tail: every image in
	// [TailStart, n) is always scored exactly, whether or not any list
	// mentions it. Images appended after an index build land here, so a
	// pruned query can never miss a freshly ingested image.
	TailStart int
}

// Count returns the total number of candidate images for a collection of n
// images: the list members plus the unindexed tail.
func (c CandidateSet) Count(n int) int {
	total := 0
	for _, l := range c.Lists {
		total += len(l)
	}
	if c.TailStart < n {
		total += n - c.TailStart
	}
	return total
}

// viewSet returns the scratch arena's reusable DenseSet view, creating it on
// first use.
func (s *rankScratch) viewSet() *kernel.DenseSet {
	if s.view == nil {
		s.view = kernel.NewSetView()
	}
	return s.view
}

// scoreCandidateList scores one ascending candidate list into sel: maximal
// runs of consecutive indices inside a single shard become one scorer call
// over a storage view, so a dense list costs the same per-point work as the
// exhaustive scan and a sparse list degrades to per-point calls without ever
// copying point data.
func scoreCandidateList(sc *rankScratch, set *kernel.ShardedSet, list []int32, sel *topKSelector, fn func(sub *kernel.DenseSet, lo int, dst []float64)) {
	ss := set.ShardSize()
	for i := 0; i < len(list); {
		start := int(list[i])
		si := start / ss
		base := si * ss
		limit := base + ss
		end := start + 1
		j := i + 1
		for j < len(list) && int(list[j]) == end && end < limit {
			end++
			j++
		}
		sub := set.Shard(si).SliceInto(sc.viewSet(), start-base, end-base)
		scores := sc.lane(0, end-start)
		fn(sub, start, scores)
		for t, v := range scores {
			sel.push(start+t, v)
		}
		i = j
	}
}

// rankTopCandidates is the candidate-restricted streaming selection mode: the
// candidate lists and the tail shards are the units of a shared work queue,
// each unit's scores feed a bounded per-worker selector from the pooled
// scratch arenas, and the selections merge into one global top-K appended to
// dst. The (score, index) total order is strict and every candidate is scored
// with the exhaustive path's arithmetic, so the result is the unique top-K of
// the candidate set — bit-identical for any shard size and worker count to
// filtering a full exhaustive ranking down to the candidates.
//
// ctx.Ctx is checked between units exactly like the exhaustive path: a
// cancelled scan stops within one unit and its partial selection is
// discarded, never returned.
func rankTopCandidates(ctx *QueryContext, b *CollectionBatch, cands CandidateSet, k int, dst []Ranked, fn func(sub *kernel.DenseSet, lo int, dst []float64)) ([]Ranked, error) {
	set := b.VisualSet()
	n := set.Len()
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		if dst == nil {
			dst = []Ranked{}
		}
		return dst, nil
	}
	tailLo := cands.TailStart
	if tailLo < 0 {
		tailLo = 0
	}
	if tailLo > n {
		tailLo = n
	}
	ss := set.ShardSize()
	firstTailShard := set.NumShards()
	if tailLo < n {
		firstTailShard = tailLo / ss
	}
	numLists := len(cands.Lists)
	numUnits := numLists + set.NumShards() - firstTailShard

	// scoreUnit scores work unit t (a candidate list, or one tail shard's
	// suffix) through the given scratch into the given selector.
	scoreUnit := func(sc *rankScratch, sel *topKSelector, t int) {
		if t < numLists {
			scoreCandidateList(sc, set, cands.Lists[t], sel, fn)
			return
		}
		si := firstTailShard + (t - numLists)
		base := set.ShardStart(si)
		lo := base
		if tailLo > lo {
			lo = tailLo
		}
		hi := base + set.Shard(si).Len()
		if lo >= hi {
			return
		}
		sub := set.Shard(si).SliceInto(sc.viewSet(), lo-base, hi-base)
		scores := sc.lane(0, hi-lo)
		fn(sub, lo, scores)
		for i, v := range scores {
			sel.push(lo+i, v)
		}
	}

	stdctx := ctx.Ctx
	workers := ctx.workers()
	if workers > numUnits {
		workers = numUnits
	}
	if workers <= 1 {
		sc := b.scratchGet()
		sc.sel.reset(k)
		for t := 0; t < numUnits; t++ {
			if err := ctxErr(stdctx); err != nil {
				b.scratchPut(sc)
				return nil, err
			}
			scoreUnit(sc, &sc.sel, t)
		}
		dst = sc.sel.drain(dst)
		b.scratchPut(sc)
		return dst, nil
	}

	var mu sync.Mutex
	gsc := b.scratchGet()
	global := &gsc.sel
	global.reset(k)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := b.scratchGet()
			sc.sel.reset(k)
			for {
				if ctxErr(stdctx) != nil {
					break
				}
				t := int(next.Add(1)) - 1
				if t >= numUnits {
					break
				}
				scoreUnit(sc, &sc.sel, t)
			}
			mu.Lock()
			global.merge(&sc.sel)
			mu.Unlock()
			b.scratchPut(sc)
		}()
	}
	wg.Wait()
	if err := ctxErr(stdctx); err != nil {
		// The merged selection is missing the unscored units; discard it.
		b.scratchPut(gsc)
		return nil, err
	}
	dst = global.drain(dst)
	b.scratchPut(gsc)
	return dst, nil
}

// RankTopCandidates ranks only the images named by cands — probed IVF cell
// members plus the always-exact unindexed tail — by exact (negative)
// Euclidean distance to the query, appending the top k to dst. Every
// returned score is bit-identical to the exhaustive RankTop score of the
// same image; only membership in the considered set is approximate.
func (Euclidean) RankTopCandidates(ctx *QueryContext, cands CandidateSet, k int, dst []Ranked) ([]Ranked, error) {
	if err := validateEuclidean(ctx); err != nil {
		return nil, err
	}
	b := ctx.collectionBatch()
	q := b.queryVector(ctx.Query)
	return rankTopCandidates(ctx, b, cands, k, dst, func(sub *kernel.DenseSet, lo int, dst []float64) {
		scoreDistanceRange(q, sub, dst)
	})
}
