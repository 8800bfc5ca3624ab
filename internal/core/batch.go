package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/svm"
)

// This file is the sharded, data-parallel scoring path shared by every
// retrieval scheme: the collection is partitioned into fixed-size shards
// (kernel.ShardedSet), models are evaluated shard-wise through the batch
// kernel path, and the per-image work is distributed over Workers goroutines
// pulling shard ranges from a queue. Each score element is written by
// exactly one worker with the same arithmetic as the scalar path, so
// rankings are bit-for-bit independent of the worker count and of the shard
// size.
//
// Two consumption modes exist: the full-scores mode materializes one score
// per image (the evaluation harness needs every score), and the streaming
// mode (rankTopRanges) pushes each shard's scores through a bounded top-K
// selector backed by a pooled per-query scratch arena, so the steady-state
// query path allocates nothing proportional to the collection size.

// DefaultShardSize re-exports the collection shard capacity selected when a
// batch is built without an explicit shard size.
const DefaultShardSize = kernel.DefaultShardSize

// CollectionBatch caches collection-level precomputation shared by every
// query against the same collection: the sharded flat visual store with
// per-shard row norms, the log vectors wrapped as kernel points, the
// mean-distance estimate of the default visual kernel, and a pool of
// per-query scratch arenas (score lanes and top-K selectors sized to one
// shard). Build one per indexed collection (the retrieval engine and eval
// experiments do) and attach it to each QueryContext; schemes fall back to a
// transient one per Rank call when the context carries none. All methods are
// safe for concurrent use.
//
// The sharded store is the batch's only copy of the visual rows: every row
// a scheme reads — training points, query vectors, scored ranges — is a view
// into it, and the batch retains nothing of the descriptors it was built
// from beyond the identity its stale-batch guard compares (see matches).
type CollectionBatch struct {
	set *kernel.ShardedSet
	// first is a weak pointer to the first element of the first descriptor
	// the batch was built from (nil for an empty collection); with the length
	// it identifies the source collection in O(1). Being weak, it never keeps
	// the caller's descriptors alive, and a collection allocated later at the
	// same address never compares equal to it.
	first weak.Pointer[float64]

	vkOnce sync.Once
	vk     kernel.Kernel

	qsOnce sync.Once
	qs     *kernel.QuantizedSet

	logMu  sync.Mutex
	logSrc []*sparse.Vector
	logPts []kernel.Point

	// scratch pools per-query scoring arenas (see rankScratch); steady-state
	// queries reuse them instead of allocating shard-sized buffers.
	scratch sync.Pool
}

// NewCollectionBatch indexes the collection's visual descriptors into
// sharded flat storage with the default shard size. The descriptors are
// copied; later mutation of the input does not reach the batch.
func NewCollectionBatch(visual []linalg.Vector) *CollectionBatch {
	return NewShardedCollectionBatch(visual, 0)
}

// NewShardedCollectionBatch indexes the collection with an explicit shard
// size (<= 0 selects kernel.DefaultShardSize). Scores and rankings are
// bit-identical for every shard size; the knob trades per-worker cache
// residency against scheduling granularity.
func NewShardedCollectionBatch(visual []linalg.Vector, shardSize int) *CollectionBatch {
	return &CollectionBatch{set: kernel.NewShardedSet(visual, shardSize), first: firstElement(visual)}
}

// firstElement returns a weak pointer to the first element of the first
// descriptor, or the nil weak pointer when there is none.
func firstElement(visual []linalg.Vector) weak.Pointer[float64] {
	if len(visual) == 0 || len(visual[0]) == 0 {
		return weak.Pointer[float64]{}
	}
	return weak.Make(&visual[0][0])
}

// Grow returns a CollectionBatch covering the receiver's collection followed
// by added, which are copied; the receiver is left untouched. The sharded
// store grows copy-on-write through kernel.ShardedSet.Grow — full shards are
// shared and only the tail shard is rebuilt — so row norms are computed only
// for the appended descriptors and in-flight queries against the receiver
// are never disturbed. The default-kernel bandwidth is re-estimated lazily
// over the full grown collection — the evenly spaced subsample of the
// estimator is deterministic, so the grown batch's kernel is identical to a
// from-scratch batch over the same collection. The log-point cache starts
// empty: its shape tracks the collection size. The grown batch keeps the
// receiver's source identity, so it matches the caller's collection slice
// once that slice has been extended by the same descriptors.
func (b *CollectionBatch) Grow(added []linalg.Vector) *CollectionBatch {
	first := b.first
	if b.set.Len() == 0 {
		first = firstElement(added)
	}
	return &CollectionBatch{set: b.set.Grow(added), first: first}
}

// matches reports whether the batch was built from this collection slice:
// the same length and the same first descriptor storage. Length alone is not
// enough — a batch built over a different same-size collection would
// silently score against stale descriptors — and the check is O(1) because
// the batch keeps no reference to the rest of its source.
func (b *CollectionBatch) matches(visual []linalg.Vector) bool {
	return len(visual) == b.set.Len() && firstElement(visual) == b.first
}

// Len returns the number of images in the collection.
func (b *CollectionBatch) Len() int { return b.set.Len() }

// VisualSet returns the sharded flat visual collection store.
func (b *CollectionBatch) VisualSet() *kernel.ShardedSet { return b.set }

// QuantizedVisualSet returns (building once) the int8 quantized shadow copy
// of the visual collection for the approximate scan lane. The quantization
// depends only on the collection, so the copy is shared by every query on
// the batch; Grow produces a new batch and therefore a fresh quantization
// covering the appended images. The quantizer reads the rows through
// transient views into the sharded store.
func (b *CollectionBatch) QuantizedVisualSet() *kernel.QuantizedSet {
	b.qsOnce.Do(func() {
		rows := make([]linalg.Vector, b.set.Len())
		for i := range rows {
			rows[i] = linalg.Vector(b.set.Point(i))
		}
		b.qs = kernel.NewQuantizedSet(rows)
	})
	return b.qs
}

// defaultVisualKernel estimates (once) the default RBF kernel over the
// collection's visual descriptors. The estimate depends only on the
// collection, never on the query, so caching it across queries changes no
// score.
func (b *CollectionBatch) defaultVisualKernel() kernel.Kernel {
	b.vkOnce.Do(func() {
		b.vk = kernel.RBF{Gamma: visualGammaScale * kernel.EstimateRBFGammaSet(b.set, gammaSample)}
	})
	return b.vk
}

// visualPoints returns the visual descriptors of the given image indices as
// kernel points: views into the sharded store, never copies.
func (b *CollectionBatch) visualPoints(indices []int) []kernel.Point {
	out := make([]kernel.Point, len(indices))
	for i, idx := range indices {
		out[i] = b.set.Point(idx)
	}
	return out
}

// queryVector returns the query image's descriptor as a view into the
// sharded store.
func (b *CollectionBatch) queryVector(query int) linalg.Vector {
	return linalg.Vector(b.set.Point(query))
}

// logPoints wraps the per-image log vectors as kernel points, memoized per
// log snapshot (the engine rebuilds the vectors when the log grows, which
// invalidates the memo by identity).
func (b *CollectionBatch) logPoints(vs []*sparse.Vector) []kernel.Point {
	if len(vs) == 0 {
		return nil
	}
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if b.logSrc != nil && len(b.logSrc) == len(vs) && &b.logSrc[0] == &vs[0] {
		return b.logPts
	}
	pts := kernel.SparsePoints(vs)
	b.logSrc = vs
	b.logPts = pts
	return pts
}

// rankScratch is one pooled per-query scoring arena: two shard-sized score
// lanes (decision values, log-modality values or kernel accumulation
// buffers), a reusable bounded top-K selector and the selectors of the
// streaming unlabeled selection. Arenas live in the
// collection batch's pool; a steady-state query borrows one, scores through
// it and returns it without allocating.
type rankScratch struct {
	lanes [2][]float64
	sel   topKSelector
	draft draftSelectors
	// view is a reusable DenseSet header for the candidate-restricted lane,
	// so slicing a run of candidates out of a shard allocates nothing.
	view *kernel.DenseSet
}

// lane returns scratch lane i with length n, growing its backing array only
// when a larger shard is seen.
func (s *rankScratch) lane(i, n int) []float64 {
	if cap(s.lanes[i]) < n {
		s.lanes[i] = make([]float64, n)
	}
	return s.lanes[i][:n]
}

// scratchGet borrows a scoring arena from the batch's pool.
func (b *CollectionBatch) scratchGet() *rankScratch {
	if s, ok := b.scratch.Get().(*rankScratch); ok {
		return s
	}
	return &rankScratch{}
}

// scratchPut returns a borrowed arena to the pool.
func (b *CollectionBatch) scratchPut(s *rankScratch) { b.scratch.Put(s) }

// collectionBatch returns the context's attached CollectionBatch when the
// context names no descriptors or the batch matches them, and otherwise
// builds a transient one over ctx.Visual.
func (ctx *QueryContext) collectionBatch() *CollectionBatch {
	if ctx.Batch != nil && (ctx.Visual == nil || ctx.Batch.matches(ctx.Visual)) {
		return ctx.Batch
	}
	return NewCollectionBatch(ctx.Visual)
}

// workers resolves the context's worker count: <=0 selects GOMAXPROCS.
func (ctx *QueryContext) workers() int {
	if ctx.Workers > 0 {
		return ctx.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachRange partitions the sharded collection into contiguous ranges —
// each confined to a single shard, so every unit of work reads one
// cache-local slab — and runs fn over them on up to workers goroutines
// pulling ranges from a shared queue. fn receives the range as a DenseSet
// view plus the global index of its first row; it must only write state
// owned by its own range. With one worker the shards are visited in order
// on the calling goroutine with no scheduling overhead or allocation.
//
// stdctx is checked between ranges: once it is cancelled, no worker starts
// another range (each finishes at most the range it is inside), so a
// disconnected client or an expired deadline frees the scoring workers
// within one shard range. Callers detect the early exit by checking the
// context after forEachRange returns; partial results must then be
// discarded, never cached. A nil context is never cancelled.
func forEachRange(stdctx context.Context, set *kernel.ShardedSet, workers int, fn func(sub *kernel.DenseSet, lo int)) {
	n := set.Len()
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for si := 0; si < set.NumShards(); si++ {
			if ctxErr(stdctx) != nil {
				return
			}
			fn(set.Shard(si), set.ShardStart(si))
		}
		return
	}
	// Chunk so every worker has work even when the whole collection fits in
	// one shard, without ever splitting a range across shard boundaries.
	chunk := (n + workers - 1) / workers
	if ss := set.ShardSize(); chunk > ss {
		chunk = ss
	}
	tasksPerShard := (set.ShardSize() + chunk - 1) / chunk
	numTasks := tasksPerShard * set.NumShards()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctxErr(stdctx) != nil {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= numTasks {
					return
				}
				shard := set.Shard(t / tasksPerShard)
				lo := (t % tasksPerShard) * chunk
				if lo >= shard.Len() {
					continue // the tail shard is shorter than a full one
				}
				hi := lo + chunk
				if hi > shard.Len() {
					hi = shard.Len()
				}
				fn(shard.Slice(lo, hi), set.ShardStart(t/tasksPerShard)+lo)
			}
		}()
	}
	wg.Wait()
}

// rankTopRanges is the streaming selection mode: fn scores each shard range
// into a pooled scratch lane, the range's scores feed a bounded top-K
// selector, and the per-range selections merge into one global top-K
// appended to dst (reusing its capacity — a caller recycling its result
// buffer allocates nothing here). The (score, index) total order is strict,
// so the merged result is the unique global top-K — bit-identical to
// materializing every score and fully sorting, for any shard size and
// worker count.
func rankTopRanges(ctx *QueryContext, b *CollectionBatch, k int, dst []Ranked, fn func(sub *kernel.DenseSet, lo int, dst []float64)) ([]Ranked, error) {
	set := b.VisualSet()
	n := set.Len()
	if k > n {
		k = n
	}
	if k <= 0 {
		if dst == nil {
			dst = []Ranked{}
		}
		return dst, nil
	}
	stdctx := ctx.Ctx
	workers := ctx.workers()
	if workers <= 1 || n <= 1 {
		sc := b.scratchGet()
		sc.sel.reset(k)
		for si := 0; si < set.NumShards(); si++ {
			if err := ctxErr(stdctx); err != nil {
				b.scratchPut(sc)
				return nil, err
			}
			shard := set.Shard(si)
			lo := set.ShardStart(si)
			scores := sc.lane(0, shard.Len())
			fn(shard, lo, scores)
			for i, v := range scores {
				sc.sel.push(lo+i, v)
			}
		}
		dst = sc.sel.drain(dst)
		b.scratchPut(sc)
		return dst, nil
	}
	// The global merge selector comes from the pool too, so the parallel
	// path allocates nothing per query beyond the goroutines themselves.
	var mu sync.Mutex
	gsc := b.scratchGet()
	global := &gsc.sel
	global.reset(k)
	forEachRange(stdctx, set, workers, func(sub *kernel.DenseSet, lo int) {
		sc := b.scratchGet()
		scores := sc.lane(0, sub.Len())
		fn(sub, lo, scores)
		sc.sel.reset(k)
		for i, v := range scores {
			sc.sel.push(lo+i, v)
		}
		mu.Lock()
		global.merge(&sc.sel)
		mu.Unlock()
		b.scratchPut(sc)
	})
	if err := ctxErr(stdctx); err != nil {
		// The merged selection is missing the unscored ranges; discard it.
		b.scratchPut(gsc)
		return nil, err
	}
	dst = global.drain(dst)
	b.scratchPut(gsc)
	return dst, nil
}

// rankVisual scores every image of the collection under a visual-modality
// model, sharded across the context's workers.
func rankVisual(ctx *QueryContext, b *CollectionBatch, model *svm.Model) ([]float64, error) {
	set := b.VisualSet()
	scores := make([]float64, set.Len())
	forEachRange(ctx.Ctx, set, ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		sc := b.scratchGet()
		model.DecisionSet(sub, scores[lo:lo+sub.Len()], sc.lane(0, sub.Len()))
		b.scratchPut(sc)
	})
	if err := ctxErr(ctx.Ctx); err != nil {
		return nil, err
	}
	return scores, nil
}

// scoreCoupledRange scores one shard range by the summed decision value of a
// visual and a log model, writing into dst with the same arithmetic as the
// scalar path.
func scoreCoupledRange(b *CollectionBatch, visualModel, logModel *svm.Model, logPts []kernel.Point, sub *kernel.DenseSet, lo int, dst []float64) {
	sc := b.scratchGet()
	logScores := sc.lane(0, sub.Len())
	visualModel.DecisionSet(sub, dst, sc.lane(1, sub.Len()))
	logModel.DecisionBatch(logPts[lo:lo+sub.Len()], logScores, sc.lane(1, sub.Len()))
	for i := range dst {
		dst[i] += logScores[i]
	}
	b.scratchPut(sc)
}

// rankCoupled scores every image by the summed decision value of a visual
// and a log model (the combined score of the two-modality schemes), sharded
// across the context's workers.
func rankCoupled(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model) ([]float64, error) {
	set := b.VisualSet()
	logPts := b.logPoints(ctx.LogVectors)
	scores := make([]float64, set.Len())
	forEachRange(ctx.Ctx, set, ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		scoreCoupledRange(b, visualModel, logModel, logPts, sub, lo, scores[lo:lo+sub.Len()])
	})
	if err := ctxErr(ctx.Ctx); err != nil {
		return nil, err
	}
	return scores, nil
}

// rankTopVisual is the streaming counterpart of rankVisual followed by the
// query prior and top-k selection, appending into dst.
func rankTopVisual(ctx *QueryContext, b *CollectionBatch, model *svm.Model, k int, dst []Ranked) ([]Ranked, error) {
	q := b.queryVector(ctx.Query)
	return rankTopRanges(ctx, b, k, dst, func(sub *kernel.DenseSet, lo int, dst []float64) {
		sc := b.scratchGet()
		model.DecisionSet(sub, dst, sc.lane(1, sub.Len()))
		b.scratchPut(sc)
		subtractQueryPrior(b, q, sub, dst)
	})
}

// rankTopCoupled is the streaming counterpart of rankCoupled followed by the
// query prior and top-k selection, appending into dst.
func rankTopCoupled(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model, k int, dst []Ranked) ([]Ranked, error) {
	q := b.queryVector(ctx.Query)
	logPts := b.logPoints(ctx.LogVectors)
	return rankTopRanges(ctx, b, k, dst, func(sub *kernel.DenseSet, lo int, dst []float64) {
		scoreCoupledRange(b, visualModel, logModel, logPts, sub, lo, dst)
		subtractQueryPrior(b, q, sub, dst)
	})
}

// queryDistanceRange writes the Euclidean distance from q to every row of
// one shard range into dst, through the norm-expansion batch path (one
// matrix-vector product against the precomputed row norms; EXPERIMENTS.md
// documents the O(1e-15) per-score drift and the unchanged MAP metrics).
// Each row's distance depends on that row alone, so scoring range by range
// is bit-identical to one pass over the whole collection.
func queryDistanceRange(q linalg.Vector, sub *kernel.DenseSet, dst []float64) {
	sub.Matrix().RowSquaredDistancesNormInto(dst, q, sub.Norms())
	for i := range dst {
		dst[i] = math.Sqrt(dst[i])
	}
}

// scoreDistanceRange writes the negative Euclidean distance of one shard
// range into dst — the Euclidean scheme's score.
func scoreDistanceRange(q linalg.Vector, sub *kernel.DenseSet, dst []float64) {
	sub.Matrix().RowSquaredDistancesNormInto(dst, q, sub.Norms())
	for i := range dst {
		dst[i] = -math.Sqrt(dst[i])
	}
}

// subtractQueryPrior applies the initial-similarity prior (see
// queryPriorWeight) to one shard range's scores in place. The range's query
// distances are computed into a pooled scratch lane, so the prior costs no
// collection-sized memory.
func subtractQueryPrior(b *CollectionBatch, q linalg.Vector, sub *kernel.DenseSet, dst []float64) {
	sc := b.scratchGet()
	dist := sc.lane(0, sub.Len())
	queryDistanceRange(q, sub, dist)
	for i := range dst {
		dst[i] -= queryPriorWeight * dist[i]
	}
	b.scratchPut(sc)
}

// addQueryPriorBatch applies the initial-similarity prior to a full score
// slice in place, range by range across the context's workers.
func addQueryPriorBatch(scores []float64, ctx *QueryContext, b *CollectionBatch) error {
	q := b.queryVector(ctx.Query)
	forEachRange(ctx.Ctx, b.VisualSet(), ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		subtractQueryPrior(b, q, sub, scores[lo:lo+sub.Len()])
	})
	return ctxErr(ctx.Ctx)
}
