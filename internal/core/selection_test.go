package core

import (
	"reflect"
	"slices"
	"testing"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// This file keeps the full-sort unlabeled selection — materialize every
// candidate's combined score, argsort it, walk the order with a picked set —
// as the reference the streaming selectDrafts is checked against.

// labeledSet returns the labeled indices as a set for quick membership tests.
func (ctx *QueryContext) labeledSet() map[int]bool {
	set := make(map[int]bool, len(ctx.Labeled))
	for _, ex := range ctx.Labeled {
		set[ex.Index] = true
	}
	return set
}

// oracleCandidates lists the unlabeled images in ascending index order.
func oracleCandidates(ctx *QueryContext) []int {
	labeledSet := ctx.labeledSet()
	var candidates []int
	for i := 0; i < ctx.NumImages(); i++ {
		if !labeledSet[i] {
			candidates = append(candidates, i)
		}
	}
	return candidates
}

// selectUnlabeled drafts up to num unlabeled images from candidates: half
// with the largest combined scores (initial label +1), half with the
// smallest (initial label -1). When there are fewer candidates than
// requested, every candidate is drafted, split between the two halves.
func selectUnlabeled(candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	scores := make([]float64, len(candidates))
	for i, idx := range candidates {
		scores[i] = combined[idx]
	}
	order := linalg.ArgsortDesc(scores)
	half := num / 2
	if half == 0 {
		half = 1
	}
	picked := make(map[int]bool, num)
	// Highest combined scores: presumed relevant.
	for i := 0; i < half && i < len(order); i++ {
		idx := candidates[order[i]]
		if picked[idx] {
			continue
		}
		picked[idx] = true
		indices = append(indices, idx)
		initialLabels = append(initialLabels, 1)
	}
	// Lowest combined scores: presumed irrelevant.
	for i := 0; i < num-half && i < len(order); i++ {
		idx := candidates[order[len(order)-1-i]]
		if picked[idx] {
			continue
		}
		picked[idx] = true
		indices = append(indices, idx)
		initialLabels = append(initialLabels, -1)
	}
	return indices, initialLabels
}

// logAssistedSelection drafts the presumed-positive half only from images
// that carry log information (at least one recorded judgment), ranked by the
// combined score; the presumed-negative half is the global minimum of the
// combined score as in selectUnlabeled. When fewer log-covered candidates
// exist than needed, the remainder is filled from the global ranking.
func logAssistedSelection(ctx *QueryContext, candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	half := num / 2
	if half == 0 {
		half = 1
	}
	scores := make([]float64, len(candidates))
	for i, idx := range candidates {
		scores[i] = combined[idx]
	}
	order := linalg.ArgsortDesc(scores)
	picked := make(map[int]bool, num)

	// Presumed positives: best-scoring log-covered candidates first.
	for _, oi := range order {
		if len(indices) >= half {
			break
		}
		idx := candidates[oi]
		if picked[idx] || ctx.LogVectors[idx].NNZ() == 0 {
			continue
		}
		picked[idx] = true
		indices = append(indices, idx)
		initialLabels = append(initialLabels, 1)
	}
	// Fill up from the global ranking if the log-covered pool ran dry.
	for _, oi := range order {
		if len(indices) >= half {
			break
		}
		idx := candidates[oi]
		if picked[idx] {
			continue
		}
		picked[idx] = true
		indices = append(indices, idx)
		initialLabels = append(initialLabels, 1)
	}
	// Presumed negatives: global minimum of the combined score.
	for i := len(order) - 1; i >= 0 && len(indices) < num; i-- {
		idx := candidates[order[i]]
		if picked[idx] {
			continue
		}
		picked[idx] = true
		indices = append(indices, idx)
		initialLabels = append(initialLabels, -1)
	}
	return indices, initialLabels
}

// oracleSelection is the full-sort counterpart of selectDrafts.
func oracleSelection(ctx *QueryContext, combined []float64, num int, allCovered bool) ([]int, []float64) {
	if allCovered {
		return selectUnlabeled(oracleCandidates(ctx), combined, num)
	}
	return logAssistedSelection(ctx, oracleCandidates(ctx), combined, num)
}

// selectionFixture is one collection and feedback round of the selection
// differential test.
type selectionFixture struct {
	name string
	ctx  *QueryContext
	num  int
}

// withoutLog returns a copy of the log columns with every column past the
// first keep log-covered ones replaced by an empty vector.
func withoutLog(cols []*sparse.Vector, keep int) []*sparse.Vector {
	out := make([]*sparse.Vector, len(cols))
	for i, v := range cols {
		if v.NNZ() > 0 && keep > 0 {
			out[i] = v
			keep--
			continue
		}
		out[i] = sparse.New(v.Dim)
	}
	return out
}

func selectionFixtures(t *testing.T) []selectionFixture {
	col := makeCollection(t, 3, 12, 30, 0.05, 71)
	fixtures := []selectionFixture{
		{name: "covered", ctx: col.queryContext(4, 10), num: 16},
	}

	// Every image twice, log column included: exact score ties.
	dup := &syntheticCollection{
		visual:     slices.Concat(col.visual, col.visual),
		logVectors: slices.Concat(col.logVectors, col.logVectors),
		labels:     slices.Concat(col.labels, col.labels),
	}
	fixtures = append(fixtures, selectionFixture{name: "tied", ctx: dup.queryContext(7, 10), num: 16})

	noLog := col.queryContext(4, 10)
	noLog.LogVectors = withoutLog(col.logVectors, 0)
	fixtures = append(fixtures, selectionFixture{name: "no-log-coverage", ctx: noLog, num: 16})

	partLog := col.queryContext(4, 10)
	partLog.LogVectors = withoutLog(col.logVectors, 20)
	fixtures = append(fixtures, selectionFixture{name: "part-log-covered", ctx: partLog, num: 16})

	fewLog := col.queryContext(4, 10)
	fewLog.LogVectors = withoutLog(col.logVectors, 3)
	fixtures = append(fixtures, selectionFixture{name: "few-log-covered", ctx: fewLog, num: 16})

	// 36 images, 30 of them labeled: N' = 16 exceeds the 6 candidates.
	fixtures = append(fixtures, selectionFixture{name: "num-exceeds-candidates", ctx: col.queryContext(4, 30), num: 16})
	fixtures = append(fixtures, selectionFixture{name: "num-one", ctx: col.queryContext(4, 10), num: 1})

	// Only relevant judgments: both initial SVMs are constant, so every
	// image scores the same.
	oneClass := col.queryContext(4, 10)
	oneClass.Labeled = nil
	for i, c := range col.labels {
		if c == col.labels[4] && len(oneClass.Labeled) < 6 {
			oneClass.Labeled = append(oneClass.Labeled, LabeledExample{Index: i, Label: 1})
		}
	}
	fixtures = append(fixtures, selectionFixture{name: "single-class", ctx: oneClass, num: 16})

	// Duplicate judgments of one image count once.
	repeated := col.queryContext(4, 10)
	repeated.Labeled = append(repeated.Labeled, repeated.Labeled[0], repeated.Labeled[3])
	fixtures = append(fixtures, selectionFixture{name: "repeated-labels", ctx: repeated, num: 16})
	return fixtures
}

// TestSelectDraftsMatchesFullSortOracle checks the streaming selection
// against the full-sort reference on every shard size and worker count:
// same images, same order, same initial labels.
func TestSelectDraftsMatchesFullSortOracle(t *testing.T) {
	for _, fx := range selectionFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			for _, shardSize := range []int{1, 7, 64, 0} {
				for _, workers := range []int{1, 2, 4} {
					ctx := *fx.ctx
					ctx.Workers = workers
					ctx.Batch = NewShardedCollectionBatch(ctx.Visual, shardSize)
					p := DefaultCSVMParams().withDefaults(&ctx, ctx.Batch)
					labeledIdx, labels := labeledSplit(&ctx)
					visualInit, logInit, err := initialModels(&ctx, ctx.Batch, p, labeledIdx, labels)
					if err != nil {
						t.Fatal(err)
					}
					combined, err := rankCoupled(&ctx, ctx.Batch, visualInit, logInit)
					if err != nil {
						t.Fatal(err)
					}
					for _, allCovered := range []bool{false, true} {
						wantIdx, wantLabels := oracleSelection(&ctx, combined, fx.num, allCovered)
						gotIdx, gotLabels, err := selectDrafts(&ctx, ctx.Batch, visualInit, logInit, fx.num, allCovered)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotLabels, wantLabels) {
							t.Errorf("shard %d workers %d allCovered %v: streaming (%v, %v), full sort (%v, %v)",
								shardSize, workers, allCovered, gotIdx, gotLabels, wantIdx, wantLabels)
						}
					}
				}
			}
		})
	}
}

// TestDraftSelectorsTiesMatchOracle drives the selectors directly with
// heavily tied integer scores, split into ranges and merged in scrambled
// order, against the full-sort walk.
func TestDraftSelectorsTiesMatchOracle(t *testing.T) {
	rng := linalg.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		ctx := &QueryContext{Visual: make([]linalg.Vector, n), LogVectors: make([]*sparse.Vector, n)}
		combined := make([]float64, n)
		for i := range combined {
			combined[i] = float64(rng.Intn(4) - 2)
			ctx.LogVectors[i] = sparse.New(1)
			if rng.Intn(3) == 0 {
				ctx.LogVectors[i].Set(0, 1)
			}
			if rng.Intn(4) == 0 {
				ctx.Labeled = append(ctx.Labeled, LabeledExample{Index: i, Label: 1})
			}
		}
		num := 1 + rng.Intn(20)
		labeled := ctx.labeledIndices()
		clamped := min(num, n-len(labeled))
		if clamped == 0 {
			continue
		}
		half := max(clamped/2, 1)
		for _, allCovered := range []bool{false, true} {
			var global draftSelectors
			global.reset(half, clamped)
			rangeSize := 1 + rng.Intn(8)
			for _, lo := range rng.Perm((n + rangeSize - 1) / rangeSize) {
				var local draftSelectors
				local.reset(half, clamped)
				start := lo * rangeSize
				local.offer(ctx, start, combined[start:min(start+rangeSize, n)], labeled, allCovered)
				global.merge(&local)
			}
			gotIdx, gotLabels := global.drain(half, clamped)
			wantIdx, wantLabels := oracleSelection(ctx, combined, num, allCovered)
			if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotLabels, wantLabels) {
				t.Fatalf("trial %d (n=%d num=%d allCovered=%v, scores %v): streaming (%v, %v), full sort (%v, %v)",
					trial, n, num, allCovered, combined, gotIdx, gotLabels, wantIdx, wantLabels)
			}
		}
	}
}

// TestTrainingProblemMatchesFullSortOracle checks the public
// TrainingProblem output against the problem assembled from the full-sort
// selection.
func TestTrainingProblemMatchesFullSortOracle(t *testing.T) {
	for _, fx := range selectionFixtures(t) {
		ctx := *fx.ctx
		ctx.Batch = NewCollectionBatch(ctx.Visual)
		params := DefaultCSVMParams()
		params.NumUnlabeled = fx.num
		p := params.withDefaults(&ctx, ctx.Batch)
		labeledIdx, wantLabels := labeledSplit(&ctx)
		visualInit, logInit, err := initialModels(&ctx, ctx.Batch, p, labeledIdx, wantLabels)
		if err != nil {
			t.Fatal(err)
		}
		combined, err := rankCoupled(&ctx, ctx.Batch, visualInit, logInit)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantInitial := logAssistedSelection(&ctx, oracleCandidates(&ctx), combined, fx.num)

		modalities, labels, initial, err := LRFCSVM{Params: params}.TrainingProblem(&ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(labels, wantLabels) || !slices.Equal(initial, wantInitial) {
			t.Errorf("%s: labels %v initial %v, want %v %v", fx.name, labels, initial, wantLabels, wantInitial)
		}
		if !reflect.DeepEqual(modalities[0].Unlabeled, ctx.Batch.visualPoints(wantIdx)) ||
			!reflect.DeepEqual(modalities[1].Unlabeled, ctx.logPoints(wantIdx)) {
			t.Errorf("%s: unlabeled points differ from the full-sort selection %v", fx.name, wantIdx)
		}
	}
}

// TestSelectionStrategiesShareOnePath checks that the ablation variant's
// default strategy is the production scheme, bit for bit.
func TestSelectionStrategiesShareOnePath(t *testing.T) {
	col := makeCollection(t, 3, 12, 30, 0.05, 73)
	ctx := col.queryContext(5, 10)
	want, err := LRFCSVM{}.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LRFCSVMWithSelection{Strategy: SelectLogAssisted}.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Error("LRFCSVMWithSelection[log-assisted] differs from LRFCSVM")
	}
}

func TestValidateRejectsNilLogColumn(t *testing.T) {
	col := makeCollection(t, 3, 10, 15, 0, 47)
	ctx := col.queryContext(0, 8)
	ctx.LogVectors = slices.Clone(col.logVectors)
	ctx.LogVectors[17] = nil
	err := ctx.Validate(true)
	if err == nil || err.Error() != "core: image 17 has a nil log vector" {
		t.Fatalf("Validate(true) = %v, want the nil column of image 17 named", err)
	}
	if err := ctx.Validate(false); err != nil {
		t.Errorf("Validate(false) = %v; schemes without the log never read it", err)
	}
	if _, err := (LRFCSVM{}).RankTop(ctx, 5); err == nil {
		t.Error("RankTop accepted a nil log column")
	}
}

// TestTrainingProblemAllocsBounded pins step 1's memory: drafting 16
// unlabeled images out of 65,536 must allocate well under one
// collection-length score array, so a full-collection buffer creeping back
// into the selection fails here.
func TestTrainingProblemAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 65,536-image collection")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch lanes")
	}
	const n = 1 << 16
	col := makeCollection(t, 4, 50, 40, 0.05, 79)
	rng := linalg.NewRNG(83)
	visual := make([]linalg.Vector, n)
	logs := make([]*sparse.Vector, n)
	copy(visual, col.visual)
	copy(logs, col.logVectors)
	for i := len(col.visual); i < n; i++ {
		src := col.visual[rng.Intn(len(col.visual))]
		v := make(linalg.Vector, len(src))
		for d := range v {
			v[d] = src[d] + rng.Normal(0, 0.5)
		}
		visual[i] = v
		logs[i] = sparse.New(col.logVectors[0].Dim)
	}
	ctx := &QueryContext{Visual: visual, LogVectors: logs, Query: 3, Workers: 2, Batch: NewCollectionBatch(visual)}
	for i := 0; i < 12; i++ {
		label := -1.0
		if col.labels[i] == col.labels[3] {
			label = 1
		}
		ctx.Labeled = append(ctx.Labeled, LabeledExample{Index: i * 7, Label: label})
	}
	// The first call fills the batch's memoized kernel estimate and log
	// points; a feedback round on a served collection finds them built.
	if _, _, _, err := (LRFCSVM{}).TrainingProblem(ctx); err != nil {
		t.Fatal(err)
	}
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := (LRFCSVM{}).TrainingProblem(ctx); err != nil {
				runErr = err
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	limit := int64(n * 8 / 4)
	if got := res.AllocedBytesPerOp(); got >= limit {
		t.Errorf("TrainingProblem allocates %d B per call over %d images, want < %d (a quarter of one []float64 of length n)", got, n, limit)
	}
	t.Logf("TrainingProblem over %d images: %d B, %d allocs per call", n, res.AllocedBytesPerOp(), res.AllocsPerOp())
}
