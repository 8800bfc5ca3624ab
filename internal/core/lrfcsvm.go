package core

import (
	"fmt"
	"slices"
	"sync"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/svm"
)

// CSVMParams parameterizes the practical LRF-CSVM algorithm of Fig. 1.
type CSVMParams struct {
	// Cw and Cu are the soft-margin costs of the visual and log modalities.
	Cw, Cu float64
	// NumUnlabeled is N', the number of unlabeled images drafted into the
	// transductive learning task. Half are taken closest to the positive
	// region, half closest to the negative region.
	NumUnlabeled int
	// Coupled controls the alternating optimization (rho schedule, Delta,
	// solver settings).
	Coupled CoupledConfig
	// VisualKernel and LogKernel override the per-modality kernels;
	// nil selects RBF with gamma = 1/dim.
	VisualKernel kernel.Kernel
	LogKernel    kernel.Kernel
}

// DefaultCSVMParams returns the parameter set used for the paper
// reproduction: C = 1 on both modalities, N' = 16 unlabeled images and the
// default annealing schedule with Delta = 0.5. These values were selected on
// a held-out synthetic collection (the paper does not report its choices);
// the rho/Delta/N' ablation benchmarks sweep around them.
func DefaultCSVMParams() CSVMParams {
	p := CSVMParams{Cw: 1, Cu: 1, NumUnlabeled: 16, Coupled: DefaultCoupledConfig()}
	p.Coupled.Delta = 0.5
	// The paper anneals rho "until it achieves a setting threshold" without
	// reporting the threshold; Section 6.5 notes its choice matters. On the
	// synthetic substrate a conservative ceiling works best (see the rho
	// ablation benchmark), keeping the transductive points from dominating
	// the labeled feedback.
	p.Coupled.Rho = 0.25
	return p
}

func (p CSVMParams) withDefaults(ctx *QueryContext, b *CollectionBatch) CSVMParams {
	d := DefaultCSVMParams()
	if p.Cw <= 0 {
		p.Cw = d.Cw
	}
	if p.Cu <= 0 {
		p.Cu = d.Cu
	}
	if p.NumUnlabeled <= 0 {
		p.NumUnlabeled = d.NumUnlabeled
	}
	p.Coupled = p.Coupled.withDefaults()
	if p.Coupled.Solver.Ctx == nil {
		// Cancelling the query cancels its training rounds too.
		p.Coupled.Solver.Ctx = ctx.Ctx
	}
	if p.VisualKernel == nil {
		p.VisualKernel = defaultVisualKernel(b)
	}
	if p.LogKernel == nil {
		p.LogKernel = defaultLogKernel(ctx)
	}
	return p
}

// CSVMResult is the detailed outcome of one LRF-CSVM query.
type CSVMResult struct {
	// Scores holds the coupled decision value of every image in the
	// collection; rank by descending score.
	Scores []float64
	// Unlabeled lists the image indices drafted as unlabeled transductive
	// points, and UnlabeledLabels their final inferred labels.
	Unlabeled       []int
	UnlabeledLabels []float64
	// Coupled carries the optimization diagnostics.
	Coupled *CoupledResult
}

// LRFCSVM is the paper's log-based relevance feedback algorithm by coupled
// SVM (Fig. 1): it selects informative unlabeled images using both
// modalities, trains the coupled SVM with annealed transductive weighting
// and label correction, and ranks the collection by the combined decision
// value.
type LRFCSVM struct {
	Params CSVMParams
}

// Name implements Scheme.
func (LRFCSVM) Name() string { return "LRF-CSVM" }

// Rank implements Scheme.
func (s LRFCSVM) Rank(ctx *QueryContext) ([]float64, error) {
	res, err := s.RankDetailed(ctx)
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// trainingProblem runs step 1 of Fig. 1 — the per-modality initial SVMs and
// the unlabeled selection under the given strategy — and assembles the
// coupled training problem.
func (s LRFCSVM) trainingProblem(ctx *QueryContext, batch *CollectionBatch, p CSVMParams, strategy SelectionStrategy, seed uint64) (modalities []Modality, labels, initialLabels []float64, unlabeledIdx []int, err error) {
	labeledIdx, labels := labeledSplit(ctx)

	// Step 1 — select N' unlabeled samples. Train one SVM per modality on
	// the labeled data only and score every image by the sum of the two
	// decision values; draft N'/2 presumed-positive images (the log-covered
	// images closest to the positive labeled data by the combined score)
	// with initial label +1 and the N'/2 images with the smallest combined
	// score with initial label -1 (Fig. 1, step 1, the discussion in
	// Section 6.5, and the log-assisted selection of Hoi & Lyu ACM-MM'04;
	// see selectDrafts).
	visualInit, logInit, err := initialModels(ctx, batch, p, labeledIdx, labels)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	unlabeledIdx, initialLabels, err = draftUnlabeled(ctx, batch, visualInit, logInit, p.NumUnlabeled, strategy, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	modalities = []Modality{
		{
			Name:      "visual",
			Kernel:    p.VisualKernel,
			C:         p.Cw,
			Labeled:   batch.visualPoints(labeledIdx),
			Unlabeled: batch.visualPoints(unlabeledIdx),
		},
		{
			Name:      "log",
			Kernel:    p.LogKernel,
			C:         p.Cu,
			Labeled:   ctx.logPoints(labeledIdx),
			Unlabeled: ctx.logPoints(unlabeledIdx),
		},
	}
	return modalities, labels, initialLabels, unlabeledIdx, nil
}

// initialModels trains step 1's per-modality SVMs on the labeled data only.
// The two trainings are independent, so with Coupled.Workers > 1 they run
// concurrently (bit-identical to the sequential order).
func initialModels(ctx *QueryContext, b *CollectionBatch, p CSVMParams, labeledIdx []int, labels []float64) (visualInit, logInit *svm.Model, err error) {
	err = forEachModality(2, p.Coupled.Workers, func(m int) error {
		if m == 0 {
			model, err := trainModality(b.visualPoints(labeledIdx), labels, p.Cw, p.VisualKernel, perModalitySolverConfig(p.Coupled.Solver))
			if err != nil {
				return fmt.Errorf("core: LRF-CSVM visual init: %w", err)
			}
			visualInit = model
			return nil
		}
		model, err := trainModality(ctx.logPoints(labeledIdx), labels, p.Cu, p.LogKernel, perModalitySolverConfig(p.Coupled.Solver))
		if err != nil {
			return fmt.Errorf("core: LRF-CSVM log init: %w", err)
		}
		logInit = model
		return nil
	})
	return visualInit, logInit, err
}

// draftUnlabeled scores the collection by the combined decision value of the
// initial models and drafts up to num unlabeled images, with their initial
// labels, by the given strategy. The two score-extreme strategies stream
// through selectDrafts; boundary and random drafting need every candidate's
// score, so they materialize the full combined ranking.
func draftUnlabeled(ctx *QueryContext, b *CollectionBatch, visualInit, logInit *svm.Model, num int, strategy SelectionStrategy, seed uint64) ([]int, []float64, error) {
	switch strategy {
	case SelectBoundary, SelectRandom:
		combined, err := rankCoupled(ctx, b, visualInit, logInit)
		if err != nil {
			return nil, nil, err
		}
		candidates := unlabeledCandidates(ctx)
		if strategy == SelectBoundary {
			indices, initialLabels := BoundarySelection(candidates, combined, num)
			return indices, initialLabels, nil
		}
		indices, initialLabels := RandomSelection(linalg.NewRNG(seed), candidates, combined, num)
		return indices, initialLabels, nil
	case SelectMaxMin:
		return selectDrafts(ctx, b, visualInit, logInit, num, true)
	default:
		return selectDrafts(ctx, b, visualInit, logInit, num, false)
	}
}

// TrainingProblem extracts the coupled-SVM training problem — modalities,
// labeled-set labels and initial unlabeled labels — that this scheme would
// hand to TrainCoupled for the given context, unlabeled selection included.
// It exists so benchmarks and tools (lrfbench -benchtrain) can measure
// TrainCoupled on exactly the problems the feedback path produces.
func (s LRFCSVM) TrainingProblem(ctx *QueryContext) ([]Modality, []float64, []float64, error) {
	if err := ctx.Validate(true); err != nil {
		return nil, nil, nil, err
	}
	batch := ctx.collectionBatch()
	p := s.Params.withDefaults(ctx, batch)
	modalities, labels, initialLabels, _, err := s.trainingProblem(ctx, batch, p, SelectLogAssisted, 0)
	return modalities, labels, initialLabels, err
}

// train runs steps 1-2 of Fig. 1: unlabeled selection and the annealed
// coupled-SVM optimization. Step 1 streams the collection through bounded
// selection like step 3 (see selectDrafts), except for the boundary and
// random ablation strategies, which need every candidate's score.
func (s LRFCSVM) train(ctx *QueryContext, batch *CollectionBatch, p CSVMParams, strategy SelectionStrategy, seed uint64) (coupled *CoupledResult, unlabeledIdx []int, err error) {
	modalities, labels, initialLabels, unlabeledIdx, err := s.trainingProblem(ctx, batch, p, strategy, seed)
	if err != nil {
		return nil, nil, err
	}

	// Step 2 — train the coupled SVM with annealed unlabeled weighting and
	// label correction.
	coupled, err = TrainCoupled(modalities, labels, initialLabels, p.Coupled)
	if err != nil {
		return nil, nil, fmt.Errorf("core: LRF-CSVM coupled training: %w", err)
	}
	return coupled, unlabeledIdx, nil
}

// RankDetailed runs the full algorithm and returns scores plus diagnostics.
func (s LRFCSVM) RankDetailed(ctx *QueryContext) (*CSVMResult, error) {
	return s.rankDetailed(ctx, SelectLogAssisted, 0)
}

// rankDetailed is RankDetailed under the given unlabeled-selection strategy.
func (s LRFCSVM) rankDetailed(ctx *QueryContext, strategy SelectionStrategy, seed uint64) (*CSVMResult, error) {
	if err := ctx.Validate(true); err != nil {
		return nil, err
	}
	batch := ctx.collectionBatch()
	p := s.Params.withDefaults(ctx, batch)
	coupled, unlabeledIdx, err := s.train(ctx, batch, p, strategy, seed)
	if err != nil {
		return nil, err
	}

	// Step 3 — retrieve by the coupled decision value (with the same
	// initial-similarity tie-break prior as the other SVM schemes).
	scores, err := rankCoupled(ctx, batch, coupled.Models[0], coupled.Models[1])
	if err != nil {
		return nil, err
	}
	if err := addQueryPriorBatch(scores, ctx, batch); err != nil {
		return nil, err
	}
	return &CSVMResult{
		Scores:          scores,
		Unlabeled:       unlabeledIdx,
		UnlabeledLabels: coupled.UnlabeledLabels,
		Coupled:         coupled,
	}, nil
}

// RankTop implements TopKRanker: steps 1-2 run exactly as in Rank, and the
// final retrieval pass streams through per-shard bounded selection, as the
// unlabeled selection of step 1 does. Results are bit-identical to Rank +
// TopK.
func (s LRFCSVM) RankTop(ctx *QueryContext, k int) ([]Ranked, error) {
	return s.RankTopAppend(ctx, k, nil)
}

// RankTopAppend implements TopKRanker.
func (s LRFCSVM) RankTopAppend(ctx *QueryContext, k int, dst []Ranked) ([]Ranked, error) {
	if err := ctx.Validate(true); err != nil {
		return nil, err
	}
	batch := ctx.collectionBatch()
	p := s.Params.withDefaults(ctx, batch)
	coupled, _, err := s.train(ctx, batch, p, SelectLogAssisted, 0)
	if err != nil {
		return nil, err
	}
	return rankTopCoupled(ctx, batch, coupled.Models[0], coupled.Models[1], k, dst)
}

// selectDrafts is step 1's unlabeled selection as one streaming pass: each
// shard range is scored by the combined decision value of the two initial
// models into a pooled scratch lane, and every unlabeled candidate is fed to
// three bounded selectors (draftSelectors) whose per-range selections merge
// under one mutex, as rankTopRanges does. Nothing proportional to the
// collection is allocated or sorted.
//
// The drafted images and their order are exactly those of walking the
// candidates fully sorted by (score desc, index asc): the presumed-positive
// half is drawn from the best log-covered candidates, filled up from the
// best candidates overall when too few are log-covered, and the
// presumed-negative half is the worst candidates overall, lowest score first
// (higher index first among ties). The paper motivates its selection
// heuristic as being "assisted by both the low-level visual information ...
// and the log information of user feedback" [Hoi & Lyu, ACM-MM'04]: drawing
// the presumed positives from the log-covered pool keeps their inferred
// labels accurate (they reflect real user judgments) and makes them exactly
// the images whose inclusion teaches the visual SVM the category's other
// visual modes. With allCovered every candidate counts as log-covered,
// which is the purely score-driven max/min heuristic of the paper's
// pseudocode (SelectMaxMin).
//
// num is clamped to the number of unlabeled candidates; half of it (at least
// one) is drafted as presumed positives.
func selectDrafts(ctx *QueryContext, b *CollectionBatch, visualModel, logModel *svm.Model, num int, allCovered bool) (indices []int, initialLabels []float64, err error) {
	labeled := ctx.labeledIndices()
	if m := ctx.NumImages() - len(labeled); num > m {
		num = m
	}
	if num <= 0 {
		return nil, nil, nil
	}
	half := max(num/2, 1)
	logPts := b.logPoints(ctx.LogVectors)
	var mu sync.Mutex
	gsc := b.scratchGet()
	global := &gsc.draft
	global.reset(half, num)
	forEachRange(ctx.Ctx, b.VisualSet(), ctx.workers(), func(sub *kernel.DenseSet, lo int) {
		sc := b.scratchGet()
		scores := sc.lane(0, sub.Len())
		scoreCoupledRange(b, visualModel, logModel, logPts, sub, lo, scores)
		local := &sc.draft
		local.reset(half, num)
		local.offer(ctx, lo, scores, labeled, allCovered)
		mu.Lock()
		global.merge(local)
		mu.Unlock()
		b.scratchPut(sc)
	})
	if err := ctxErr(ctx.Ctx); err != nil {
		// The merged selection is missing the unscored ranges; discard it.
		b.scratchPut(gsc)
		return nil, nil, err
	}
	indices, initialLabels = global.drain(half, num)
	b.scratchPut(gsc)
	return indices, initialLabels, nil
}

// draftSelectors holds the bounded selections of selectDrafts over the
// unlabeled candidates, each in the strict (score desc, index asc) order:
//   - covered keeps the best half log-covered candidates, the presumed
//     positives;
//   - top keeps the best half overall, the fill-up when fewer than half are
//     log-covered (every covered candidate is then picked, so at most that
//     many of the best half overall are skipped as already picked);
//   - bottom keeps the worst num overall, the presumed negatives, pushed as
//     (-index, -score): its best-first order is then lowest score first,
//     higher index first among ties. At most half of them are skipped as
//     already picked positives.
type draftSelectors struct {
	covered, top, bottom topKSelector
}

// reset prepares the selectors for half presumed positives out of num.
func (d *draftSelectors) reset(half, num int) {
	d.covered.reset(half)
	d.top.reset(half)
	d.bottom.reset(num)
}

// offer feeds the scored range [lo, lo+len(scores)) to the selectors,
// skipping the labeled images (labeled is ascending).
func (d *draftSelectors) offer(ctx *QueryContext, lo int, scores []float64, labeled []int, allCovered bool) {
	next, _ := slices.BinarySearch(labeled, lo)
	for i, v := range scores {
		idx := lo + i
		if next < len(labeled) && labeled[next] == idx {
			next++
			continue
		}
		if allCovered || ctx.LogVectors[idx].NNZ() > 0 {
			d.covered.push(idx, v)
		}
		d.top.push(idx, v)
	}
	// The bottom selection visits the range backwards. Among equal scores it
	// keeps the higher index, so meeting that one first makes the rest of a
	// tied run fail the root comparison instead of each displacing the root
	// — and a single-class feedback round scores every image the same.
	end, _ := slices.BinarySearch(labeled, lo+len(scores))
	for i := len(scores) - 1; i >= 0; i-- {
		idx := lo + i
		if end > 0 && labeled[end-1] == idx {
			end--
			continue
		}
		d.bottom.push(-idx, -scores[i])
	}
}

// merge offers every kept candidate of another set of selectors.
func (d *draftSelectors) merge(o *draftSelectors) {
	d.covered.merge(&o.covered)
	d.top.merge(&o.top)
	d.bottom.merge(&o.bottom)
}

// drain walks the merged selections in the order of the full-sort
// selection — covered positives, fill-up positives, then negatives, never
// drafting an image twice — and empties the selectors.
func (d *draftSelectors) drain(half, num int) (indices []int, initialLabels []float64) {
	buf := d.covered.drain(make([]Ranked, 0, 2*half+num))
	nCovered := len(buf)
	buf = d.top.drain(buf)
	nTop := len(buf)
	buf = d.bottom.drain(buf)

	indices = make([]int, 0, num)
	initialLabels = make([]float64, 0, num)
	for _, r := range buf[:nCovered] {
		indices = append(indices, r.Index)
		initialLabels = append(initialLabels, 1)
	}
	for _, r := range buf[nCovered:nTop] {
		if len(indices) >= half {
			break
		}
		if !slices.Contains(indices, r.Index) {
			indices = append(indices, r.Index)
			initialLabels = append(initialLabels, 1)
		}
	}
	for _, r := range buf[nTop:] {
		if len(indices) >= num {
			break
		}
		if idx := -r.Index; !slices.Contains(indices, idx) {
			indices = append(indices, idx)
			initialLabels = append(initialLabels, -1)
		}
	}
	return indices, initialLabels
}

// unlabeledCandidates lists the images outside the labeled set in ascending
// index order.
func unlabeledCandidates(ctx *QueryContext) []int {
	labeled := ctx.labeledIndices()
	candidates := make([]int, 0, ctx.NumImages()-len(labeled))
	for i := 0; i < ctx.NumImages(); i++ {
		if len(labeled) > 0 && labeled[0] == i {
			labeled = labeled[1:]
			continue
		}
		candidates = append(candidates, i)
	}
	return candidates
}

// BoundarySelection is an alternative unlabeled-selection strategy used by
// the ablation benchmarks: it drafts the images closest to the current
// decision boundary (smallest |combined score|), the active-learning
// heuristic the paper reports as not working well for this task.
func BoundarySelection(candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	abs := make([]float64, len(candidates))
	for i, idx := range candidates {
		v := combined[idx]
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	order := linalg.ArgsortAsc(abs)
	for i := 0; i < num; i++ {
		idx := candidates[order[i]]
		indices = append(indices, idx)
		if combined[idx] >= 0 {
			initialLabels = append(initialLabels, 1)
		} else {
			initialLabels = append(initialLabels, -1)
		}
	}
	return indices, initialLabels
}

// RandomSelection drafts num random unlabeled candidates with initial labels
// taken from the sign of the combined score. Used by ablation benchmarks.
func RandomSelection(rng *linalg.RNG, candidates []int, combined []float64, num int) (indices []int, initialLabels []float64) {
	if num > len(candidates) {
		num = len(candidates)
	}
	if num == 0 {
		return nil, nil
	}
	perm := rng.Perm(len(candidates))
	for i := 0; i < num; i++ {
		idx := candidates[perm[i]]
		indices = append(indices, idx)
		if combined[idx] >= 0 {
			initialLabels = append(initialLabels, 1)
		} else {
			initialLabels = append(initialLabels, -1)
		}
	}
	return indices, initialLabels
}

// SelectionStrategy names an unlabeled-selection heuristic for the
// configurable variant used in ablations.
type SelectionStrategy int

// Selection strategies.
const (
	// SelectLogAssisted is the default strategy: the presumed-positive half
	// is drawn from the log-covered images with the highest combined score,
	// the presumed-negative half from the global minimum (see
	// selectDrafts).
	SelectLogAssisted SelectionStrategy = iota
	// SelectMaxMin is the purely score-driven variant of the paper's
	// pseudocode: half closest to the positive data, half closest to the
	// negative data, regardless of log coverage.
	SelectMaxMin
	// SelectBoundary drafts images nearest the decision boundary.
	SelectBoundary
	// SelectRandom drafts images uniformly at random.
	SelectRandom
)

// String returns the strategy name.
func (s SelectionStrategy) String() string {
	switch s {
	case SelectLogAssisted:
		return "log-assisted"
	case SelectMaxMin:
		return "max-min"
	case SelectBoundary:
		return "boundary"
	case SelectRandom:
		return "random"
	default:
		return fmt.Sprintf("SelectionStrategy(%d)", int(s))
	}
}

// LRFCSVMWithSelection is LRFCSVM with a configurable unlabeled-selection
// strategy; it exists for the ablation study comparing the paper's max/min
// heuristic against boundary-based active selection and random drafting.
type LRFCSVMWithSelection struct {
	Params     CSVMParams
	Strategy   SelectionStrategy
	RandomSeed uint64
}

// Name implements Scheme.
func (s LRFCSVMWithSelection) Name() string {
	return fmt.Sprintf("LRF-CSVM[%s]", s.Strategy)
}

// Rank implements Scheme. It runs LRF-CSVM's steps 1-3 with the configured
// strategy in place of the default log-assisted selection.
func (s LRFCSVMWithSelection) Rank(ctx *QueryContext) ([]float64, error) {
	res, err := LRFCSVM{Params: s.Params}.rankDetailed(ctx, s.Strategy, s.RandomSeed)
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// Ensure the schemes satisfy the Scheme interface, and that the paper's four
// comparison schemes all provide the streaming top-K path.
var (
	_ Scheme     = LRFCSVMWithSelection{}
	_ TopKRanker = Euclidean{}
	_ TopKRanker = RFSVM{}
	_ TopKRanker = LRF2SVMs{}
	_ TopKRanker = LRFCSVM{}
)

// The solver configuration type is re-exported here for convenience so that
// callers configuring schemes do not need to import the svm package.
type SolverConfig = svm.Config
