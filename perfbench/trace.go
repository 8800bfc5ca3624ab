package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
	"lrfcsvm/internal/sparse"
	"lrfcsvm/internal/storage"
	"lrfcsvm/internal/svm"
)

// attributionTolerance is how far, as a share of the median refine span,
// the median of a refine's unattributed remainder may stray from zero.
const attributionTolerance = 0.25

// queryPriorWeight mirrors the initial-similarity prior core adds to every
// SVM ranking (core/baselines.go). core has no public call for step 3 of a
// refine alone, so core.final_rank is the benchmark's own replay of it; the
// replay needs the weight to reproduce the engine's scores bit for bit,
// which it checks. A mismatch is an attribution failure: the replay no
// longer follows the program, which may still be correct.
const queryPriorWeight = 0.02

// span is one timed call.
type span struct {
	name   string
	parent int // index of the causing span, -1 for a root
	dur    time.Duration
}

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// do runs f inside a span named name and returns the span's index.
func (t *tracer) do(name string, parent int, f func()) int {
	start := time.Now()
	f()
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, dur: d})
	return len(t.spans) - 1
}

// selfTime returns span i's duration minus the durations of the spans it
// caused.
func (t *tracer) selfTime(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[i].dur
	for _, s := range t.spans[i+1:] {
		if s.parent == i {
			self -= s.dur
		}
	}
	return self
}

// durations returns the durations of every span named name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur)/float64(unit))
		}
	}
	return out
}

// replay is the traced run's direct-call state: the engine of a live
// stack, plus the benchmark's own collection batch and log columns that
// the per-layer replays run on.
type replay struct {
	r      *run
	tr     *tracer
	ctx    context.Context
	visual []linalg.Vector
	batch  *core.CollectionBatch
	cols   []*sparse.Vector
	colsN  int // log sessions cols covers
	logPts []kernel.Point
	ptsSrc *sparse.Vector

	// traced selects whether the current operation records spans and
	// replays each refine's layers; mainTime and ops split the program's
	// own call time and operation count by it. warming operations record
	// neither.
	traced   bool
	warming  bool
	mainTime [2]time.Duration
	ops      [2]int
	rounds   int
	// plain holds the durations (ms) of untraced main-path calls, by span
	// name, to set against the traced ones.
	plain map[string][]float64

	solves, iterations []float64
	remainders         []float64
	replayMismatches   int
	cacheHits          []float64
	rbfNs              []float64
	sessions           []*retrieval.Session
}

// traced replays the workload's operation sequence with direct calls into
// each module and reports the per-layer metrics.
func (r *run) traced() (result, error) {
	var err error
	if r.in, err = makeInputs(r.w.images, r.dir); err != nil {
		return result{}, err
	}
	if r.st, err = startStack(r.in, r.w, trialPath(r.dir, 0)); err != nil {
		return result{}, err
	}
	r.c = newClient(r.st.base)
	defer r.shutdown()
	printProvenance(r)

	visual, _ := r.st.engine.Snapshot()
	rp := &replay{r: r, tr: &tracer{}, ctx: context.Background(), visual: visual, batch: core.NewCollectionBatch(visual), plain: map[string][]float64{}}

	// Operations alternate between traced and untraced, so the tracing
	// overhead is measured on the same sequence.
	rp.run(r.dur)
	rp.probeCommits()
	rp.probeIngests()

	m := map[string]metric{}
	ms := func(name string) float64 { return median(rp.tr.durations(name, time.Millisecond)) }
	us := func(name string) float64 { return median(rp.tr.durations(name, time.Microsecond)) }
	m["retrieval.query_ms"] = metric{ms("retrieval.query"), "ms"}
	m["retrieval.refine_ms"] = metric{ms("retrieval.refine"), "ms"}
	m["retrieval.commit_us"] = metric{us("retrieval.commit"), "us"}
	m["retrieval.add_images_ms"] = metric{ms("retrieval.add_images"), "ms"}
	m["retrieval.refine_unattributed_ms"] = metric{median(rp.remainders), "ms"}
	m["feedbacklog.extend_ms"] = metric{ms("feedbacklog.extend"), "ms"}
	m["core.training_problem_ms"] = metric{ms("core.training_problem"), "ms"}
	m["core.train_coupled_ms"] = metric{ms("core.train_coupled"), "ms"}
	m["core.final_rank_ms"] = metric{ms("core.final_rank"), "ms"}
	m["core.scan_ms"] = metric{ms("core.scan"), "ms"}
	m["svm.solves_per_refine"] = metric{median(rp.solves), "count"}
	m["svm.iterations_per_refine"] = metric{median(rp.iterations), "count"}
	m["svm.train_us"] = metric{us("svm.train"), "us"}
	m["kernel.cache_hit_ratio"] = metric{median(rp.cacheHits), "ratio"}
	m["kernel.rbf_ns_per_row_sv"] = metric{median(rp.rbfNs), "ns"}
	m["trace.overhead_ratio"] = metric{rp.overhead(), "ratio"}
	for k, v := range rp.serverLayer() {
		m[k] = v
	}
	for k, v := range rp.ivfLayer() {
		m[k] = v
	}
	for k, v := range rp.storageLayer() {
		m[k] = v
	}
	var msStats runtime.MemStats
	runtime.ReadMemStats(&msStats)
	m["runtime.gc_cpu_fraction"] = metric{msStats.GCCPUFraction, "ratio"}
	r.pages.mu.Lock()
	m["inputs.relevant_share"] = metric{mean(r.pages.shares), "ratio"}
	m["inputs.single_class_share"] = metric{float64(r.pages.single) / float64(max(len(r.pages.shares), 1)), "ratio"}
	r.pages.mu.Unlock()
	r.checkInputs(rp.iterations)

	parent := m["retrieval.refine_ms"].Value
	fmt.Printf("attribution: refine median %.3f ms, unattributed remainder median %.3f ms (%.1f%%, tolerance %.0f%%) over %d refines\n",
		parent, m["retrieval.refine_unattributed_ms"].Value, 100*m["retrieval.refine_unattributed_ms"].Value/parent, 100*attributionTolerance, len(rp.remainders))
	if !(math.Abs(m["retrieval.refine_unattributed_ms"].Value) <= attributionTolerance*parent) {
		r.wrong("refine child spans do not account for the refine: remainder %.3f ms of %.3f ms", m["retrieval.refine_unattributed_ms"].Value, parent)
	}
	if rp.replayMismatches > 0 {
		fmt.Printf("attribution failure: the final-rank replay ranked %d of %d traced refines differently from the engine; core.final_rank_ms does not time this build's step 3 (is queryPriorWeight still core's?)\n",
			rp.replayMismatches, len(rp.remainders))
	}
	fmt.Printf("tracing overhead: main-path rate %.3f ops/s traced vs %.3f untraced\n", rp.rate(true), rp.rate(false))
	for _, name := range mainOps {
		if t, u := rp.tr.durations(name, time.Millisecond), rp.plain[name]; len(t) > 0 && len(u) > 0 {
			fmt.Printf("tracing overhead: %s p50 %.3f ms traced (n=%d) vs %.3f ms untraced (n=%d), %+.1f%%\n",
				name, median(t), len(t), median(u), len(u), 100*(median(t)/median(u)-1))
		}
	}
	for _, name := range sortedKeys(m) {
		fmt.Printf("layer %-34s %14.6f %s\n", name, m[name].Value, m[name].Unit)
	}
	if err := finite(m); err != nil {
		return result{}, err
	}
	attempted, failed := r.rec.totals()
	return result{Correct: len(r.problems) == 0, Attempted: attempted + rp.rounds, Failed: failed, Metrics: m}, nil
}

// mainOps are the program calls the replay times on its main path.
var mainOps = []string{"retrieval.query", "retrieval.refine", "retrieval.commit", "retrieval.add_images"}

// overhead is the tracing overhead: the median over the main-path calls of
// their traced p50 over their untraced p50, minus one.
func (rp *replay) overhead() float64 {
	var ratios []float64
	for _, name := range mainOps {
		if t, u := rp.tr.durations(name, time.Millisecond), rp.plain[name]; len(t) > 0 && len(u) > 0 {
			ratios = append(ratios, median(t)/median(u)-1)
		}
	}
	return median(ratios)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// span runs f as a root span when tracing and plainly otherwise, adds its
// time to the main path and returns the span's index (-1 untraced).
func (rp *replay) span(name string, f func()) int {
	start := time.Now()
	i := -1
	if rp.traced {
		i = rp.tr.do(name, -1, f)
	} else {
		f()
	}
	d := time.Since(start)
	if rp.warming {
		return i
	}
	rp.mainTime[b2i(rp.traced)] += d
	if !rp.traced {
		rp.plain[name] = append(rp.plain[name], float64(d)/float64(time.Millisecond))
	}
	return i
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rate returns the main-path operation rate of the traced or untraced
// operations: operations per second of time spent in the program's own
// calls, excluding the per-layer replays.
func (rp *replay) rate(traced bool) float64 {
	i := b2i(traced)
	return float64(rp.ops[i]) / rp.mainTime[i].Seconds()
}

// run replays the workload's operation sequence for d, alternating traced
// and untraced operations. Closed loops replay in the HTTP run's episodes,
// each after the same untimed warm-up cycles.
func (rp *replay) run(d time.Duration) {
	deadline := time.Now().Add(d)
	seq := querySequence(rp.r.seed, len(rp.r.in.visual))
	warmup := querySequence(rp.r.seed^0xbb67ae8584caa73b, len(rp.r.in.visual))[:warmupCycles]
	for ep := 0; time.Now().Before(deadline); ep++ {
		if ep > 0 {
			if err := rp.r.restart(fmt.Sprintf("episode-%d.wal", ep)); err != nil {
				rp.r.wrong("restart for episode %d: %v", ep, err)
				break
			}
			rp.reset()
		}
		rp.warming, rp.traced = true, false
		for _, q := range warmup {
			rp.cycle(q)
		}
		rp.warming = false
		for i := 0; time.Now().Before(deadline) && (!rp.r.w.feedback || i < episodeCycles); i++ {
			rp.traced = i%2 == 0
			rp.cycle(seq[i%len(seq)])
			rp.ops[b2i(rp.traced)]++
		}
		if !rp.r.w.feedback {
			break
		}
	}
	rp.traced = true
}

// reset points the replay at the current server's collection and log.
func (rp *replay) reset() {
	rp.visual, _ = rp.r.st.engine.Snapshot()
	rp.batch = core.NewCollectionBatch(rp.visual)
	rp.cols, rp.colsN, rp.logPts, rp.ptsSrc = nil, 0, nil, nil
	rp.sessions = nil
}

// cycle replays one closed-loop feedback cycle.
func (rp *replay) cycle(q int) {
	e := rp.r.st.engine
	page := rp.query(q)
	s, err := e.StartSession(q)
	if err != nil {
		rp.r.wrong("start session: %v", err)
		return
	}
	judged := map[int]bool{}
	rp.judge(s, q, page, judged)
	refined := rp.refine(s, q, judged)
	if rp.r.w.feedback {
		rp.judge(s, q, refined, judged)
		rp.refine(s, q, judged)
		rp.span("retrieval.commit", func() {
			if err := s.Commit(rp.ctx); err != nil {
				rp.r.wrong("commit: %v", err)
			}
		})
	} else {
		rp.sessions = append(rp.sessions, s)
	}
	rp.rounds++
}

// query replays an initial query, then times core's exhaustive scan of the
// same query on the benchmark's own batch.
func (rp *replay) query(q int) []server.ResultJSON {
	var res []retrieval.Result
	rp.span("retrieval.query", func() {
		var err error
		if res, err = rp.r.st.engine.InitialQuery(rp.ctx, q, topK); err != nil {
			rp.r.wrong("query %d: %v", q, err)
		}
	})
	if rp.traced {
		rp.tr.do("core.scan", -1, func() {
			if _, err := (core.Euclidean{}).RankTop(&core.QueryContext{Visual: rp.visual, Query: q, Batch: rp.batch}, topK); err != nil {
				rp.r.wrong("scan %d: %v", q, err)
			}
		})
	}
	page := make([]server.ResultJSON, len(res))
	for i, x := range res {
		page[i] = server.ResultJSON{Image: x.Image, Score: x.Score}
	}
	return page
}

// judge judges the page's images not judged yet in s.
func (rp *replay) judge(s *retrieval.Session, q int, page []server.ResultJSON, judged map[int]bool) {
	var fresh []server.ResultJSON
	for _, p := range page {
		if !judged[p.Image] {
			fresh = append(fresh, p)
		}
	}
	for _, j := range rp.r.judgePage(q, fresh) {
		judged[j.Image] = j.Relevant
		if err := s.Judge(j.Image, j.Relevant); err != nil {
			rp.r.wrong("judge: %v", err)
		}
	}
}

// refine replays an lrf-csvm refine and, when tracing, replays its layers
// one by one as its child spans.
func (rp *replay) refine(s *retrieval.Session, q int, judged map[int]bool) []server.ResultJSON {
	var res []retrieval.Result
	parent := rp.span("retrieval.refine", func() {
		var err error
		if res, err = s.Refine(rp.ctx, retrieval.SchemeLRFCSVM, topK); err != nil {
			rp.r.wrong("refine %d: %v", q, err)
		}
	})
	page := make([]server.ResultJSON, len(res))
	for i, x := range res {
		page[i] = server.ResultJSON{Image: x.Image, Score: x.Score}
	}
	if rp.traced {
		rp.refineLayers(q, judged, page, parent)
	}
	return page
}

// refineLayers replays the steps of one refine through the public
// functions of feedbacklog, core, svm and kernel, checks the replay ranks
// exactly as the engine did, and records the refine's unattributed time.
func (rp *replay) refineLayers(q int, judged map[int]bool, want []server.ResultJSON, parent int) {
	e := rp.r.st.engine
	child := func(name string, f func()) { rp.tr.do(name, parent, f) }
	child("feedbacklog.extend", func() {
		fblog := e.Log()
		rp.cols = fblog.ExtendRelevanceVectors(rp.cols, rp.colsN)
		rp.colsN = fblog.NumSessions()
	})
	labeled := make([]core.LabeledExample, 0, len(judged))
	for img, rel := range judged {
		l := -1.0
		if rel {
			l = 1
		}
		labeled = append(labeled, core.LabeledExample{Index: img, Label: l})
	}
	sort.Slice(labeled, func(a, b int) bool { return labeled[a].Index < labeled[b].Index })
	n := len(rp.visual)
	ctx := &core.QueryContext{Visual: rp.visual, LogVectors: rp.cols[:n], Query: q, Labeled: labeled, Batch: rp.batch}
	var (
		mods           []core.Modality
		labels, initYs []float64
		cr             *core.CoupledResult
		err            error
	)
	child("core.training_problem", func() { mods, labels, initYs, err = core.LRFCSVM{}.TrainingProblem(ctx) })
	if err != nil {
		rp.r.wrong("training problem: %v", err)
		return
	}
	child("core.train_coupled", func() {
		cr, err = core.TrainCoupled(mods, labels, initYs, core.CoupledConfig{Workers: retrieval.DefaultTrainWorkers})
	})
	if err != nil {
		rp.r.wrong("train coupled: %v", err)
		return
	}
	var got []int
	var scores []float64
	child("core.final_rank", func() { scores, got = rp.finalRank(ctx, cr) })
	rp.remainders = append(rp.remainders, float64(rp.tr.selfTime(parent))/float64(time.Millisecond))
	if !sameReplay(got, scores, want) {
		rp.replayMismatches++
	}
	rp.solves = append(rp.solves, float64(cr.Retrainings))
	rp.iterations = append(rp.iterations, float64(cr.SolverIterations))

	// Single-layer probes on the same round's data.
	vis := mods[0]
	rp.tr.do("svm.train", -1, func() {
		if _, err := svm.Train(svm.NewProblem(vis.Labeled, labels, vis.C), svm.Config{Kernel: vis.Kernel}); err != nil {
			rp.r.wrong("svm train: %v", err)
		}
	})
	points := append(append([]kernel.Point(nil), vis.Labeled...), vis.Unlabeled...)
	ys := append(append([]float64(nil), labels...), initYs...)
	cache := kernel.NewCache(vis.Kernel, points, 0)
	if _, err := svm.Train(svm.NewProblem(points, ys, vis.C), svm.Config{Kernel: vis.Kernel, SharedCache: cache}); err != nil {
		rp.r.wrong("svm train with shared cache: %v", err)
	}
	hits, misses := cache.Stats()
	rp.cacheHits = append(rp.cacheHits, float64(hits)/float64(max(hits+misses, 1)))
	rp.rbfLayer(cr.Models[0])
}

// sameReplay reports whether the replayed ranking got, with scores indexed
// by image, equals the engine's in image ids and score bits.
func sameReplay(got []int, scores []float64, want []server.ResultJSON) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i].Image || math.Float64bits(scores[got[i]]) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// finalRank replays step 3 of the coupled scheme: both modalities' decision
// values over every shard, the query prior, then core.TopK. It is the
// benchmark's copy of core's unexported step, not a call into it: a change
// to core's streaming top-k or chunking does not show in its time.
func (rp *replay) finalRank(ctx *core.QueryContext, cr *core.CoupledResult) ([]float64, []int) {
	set := rp.batch.VisualSet()
	if rp.ptsSrc != ctx.LogVectors[0] || len(rp.logPts) != len(ctx.LogVectors) {
		rp.logPts = kernel.SparsePoints(ctx.LogVectors)
		rp.ptsSrc = ctx.LogVectors[0]
	}
	prior, err := core.Euclidean{}.Rank(ctx)
	if err != nil {
		rp.r.wrong("prior: %v", err)
		return nil, nil
	}
	scores := make([]float64, set.Len())
	forRanges(set, func(sub *kernel.DenseSet, lo int) {
		dst := scores[lo : lo+sub.Len()]
		logScores := make([]float64, sub.Len())
		buf := make([]float64, sub.Len())
		cr.Models[0].DecisionSet(sub, dst, buf)
		cr.Models[1].DecisionBatch(rp.logPts[lo:lo+sub.Len()], logScores, buf)
		for i := range dst {
			dst[i] += logScores[i]
			dst[i] -= queryPriorWeight * -prior[lo+i]
		}
	})
	return scores, core.TopK(scores, topK)
}

// forRanges runs f over the collection in the ranges core's scoring path
// uses — shard pieces of at most n/GOMAXPROCS rows — on GOMAXPROCS
// goroutines.
func forRanges(set *kernel.ShardedSet, f func(sub *kernel.DenseSet, lo int)) {
	workers := runtime.GOMAXPROCS(0)
	chunk := min((set.Len()+workers-1)/workers, set.ShardSize())
	type task struct{ shard, lo, hi int }
	tasks := make(chan task, set.NumShards()*((set.ShardSize()+chunk-1)/chunk))
	for sh := 0; sh < set.NumShards(); sh++ {
		for lo := 0; lo < set.Shard(sh).Len(); lo += chunk {
			tasks <- task{sh, lo, min(lo+chunk, set.Shard(sh).Len())}
		}
	}
	close(tasks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				f(set.Shard(t.shard).Slice(t.lo, t.hi), set.ShardStart(t.shard)+t.lo)
			}
		}()
	}
	wg.Wait()
}

// rbfLayer times RBF.AccumulateSet of the visual model's support vectors
// over every shard, per row and support vector.
func (rp *replay) rbfLayer(m *svm.Model) {
	rbf, ok := m.Kernel.(kernel.RBF)
	if !ok || len(m.SupportPoints) == 0 {
		return
	}
	vs := make([]linalg.Vector, len(m.SupportPoints))
	for i, p := range m.SupportPoints {
		vs[i] = linalg.Vector(p.(kernel.Dense))
	}
	svs := kernel.NewDenseSet(vs)
	set := rp.batch.VisualSet()
	dst := make([]float64, set.ShardSize())
	i := rp.tr.do("kernel.rbf_accumulate", -1, func() {
		for sh := 0; sh < set.NumShards(); sh++ {
			sub := set.Shard(sh)
			rbf.AccumulateSet(m.Coefficients, svs, sub, dst[:sub.Len()])
		}
	})
	rp.rbfNs = append(rp.rbfNs, float64(rp.tr.spans[i].dur.Nanoseconds())/float64(set.Len()*svs.Len()))
}

// probeCommits traces commits of the uncommitted replay sessions, for
// workloads whose traffic commits nothing.
func (rp *replay) probeCommits() {
	if len(rp.tr.durations("retrieval.commit", time.Microsecond)) > 0 {
		return
	}
	for i, s := range rp.sessions {
		if i == probeCommits {
			break
		}
		rp.tr.do("retrieval.commit", -1, func() {
			if err := s.Commit(rp.ctx); err != nil {
				rp.r.wrong("commit: %v", err)
			}
		})
	}
}

// probeIngests traces ingests; no workload's traffic has any.
func (rp *replay) probeIngests() {
	rng := linalg.NewRNG(rp.r.seed ^ 0x510e527fade682d1)
	for b := 0; b < probeIngests; b++ {
		batch := make([]linalg.Vector, ingestBatch)
		for j := range batch {
			batch[j] = rp.r.in.jitter(rng, rng.Intn(rp.r.in.real))
		}
		rp.tr.do("retrieval.add_images", -1, func() {
			if _, err := rp.r.st.engine.AddImages(rp.ctx, batch); err != nil {
				rp.r.wrong("add images: %v", err)
			}
		})
	}
}

// checkedQuery runs one initial query over HTTP and checks it returned a
// full page.
func (r *run) checkedQuery(q int) error {
	page, err := r.c.query(q)
	if err == nil && len(page) != topK {
		err = fmt.Errorf("query %d returned %d results, want %d", q, len(page), topK)
	}
	return err
}

// serverLayer sets the HTTP path against the direct engine call on the
// same queries, and reads the shed counters from /api/status.
func (rp *replay) serverLayer() map[string]metric {
	rng := linalg.NewRNG(rp.r.seed ^ 0x1f83d9abfb41bd6b)
	n := len(rp.r.in.visual)
	// Each query runs both ways back to back, in alternating order; the
	// median of the paired differences cancels the query's own cost.
	var diffs []float64
	for i := 0; i < 200; i++ {
		q := rng.Intn(n)
		viaHTTP := func() time.Duration {
			start := time.Now()
			err := rp.r.checkedQuery(q)
			d := time.Since(start)
			rp.r.rec.add("server.query", d, err != nil)
			if err != nil {
				rp.r.wrong("HTTP query %d: %v", q, err)
			}
			return d
		}
		direct := func() time.Duration {
			start := time.Now()
			if _, err := rp.r.st.engine.InitialQuery(rp.ctx, q, topK); err != nil {
				rp.r.wrong("query %d: %v", q, err)
			}
			return time.Since(start)
		}
		var h, d time.Duration
		if i%2 == 0 {
			h, d = viaHTTP(), direct()
		} else {
			d, h = direct(), viaHTTP()
		}
		diffs = append(diffs, float64(h-d)/float64(time.Microsecond))
	}
	st, err := rp.r.c.status()
	rp.r.rec.add("server.status", 0, err != nil)
	if err != nil {
		rp.r.wrong("status: %v", err)
	}
	a := st.Admission
	shed := a.Query.Shed + a.Train.Shed + a.Ingest.Shed
	admitted := a.Query.Admitted + a.Train.Admitted + a.Ingest.Admitted
	return map[string]metric{
		"server.overhead_p50_us": {median(diffs), "us"},
		"server.shed_ratio":      {float64(shed) / float64(max(shed+admitted, 1)), "ratio"},
	}
}

// ivfLayer builds the IVF index the engine's -ann path would build, over
// at most ivfMaxImages of the collection, and probes it.
func (rp *replay) ivfLayer() map[string]metric {
	m := min(len(rp.visual), ivfMaxImages)
	set := kernel.NewShardedSet(rp.visual[:m], 0)
	clusters := int(math.Round(math.Sqrt(float64(m))))
	var ix *kernel.CentroidIndex
	var err error
	i := rp.tr.do("kernel.ivf_build", -1, func() {
		ix, err = kernel.BuildCentroidIndex(rp.ctx, set, kernel.CentroidConfig{Clusters: clusters})
	})
	if err != nil {
		rp.r.wrong("build IVF index: %v", err)
		return nil
	}
	build := rp.tr.spans[i].dur.Seconds()
	nprobe := max(ix.NumClusters()/4, 1)
	rng := linalg.NewRNG(rp.r.seed ^ 0x5be0cd19137e2179)
	var ratios []float64
	cells := make([]int, 0, ix.NumClusters())
	for k := 0; k < 200; k++ {
		q := rp.visual[rng.Intn(m)]
		rp.tr.do("kernel.ivf_probe", -1, func() { cells = ix.ProbeInto(cells, q, nprobe) })
		ratios = append(ratios, float64(ix.CandidateCount(cells))/float64(m))
	}
	return map[string]metric{
		"kernel.ivf_build_s":         {build, "s"},
		"kernel.ivf_probe_us":        {median(rp.tr.durations("kernel.ivf_probe", time.Microsecond)), "us"},
		"kernel.ivf_candidate_ratio": {median(ratios), "ratio"},
	}
}

// ivfMaxImages caps the collection the IVF layer is measured on: k-means
// costs grow as n^1.5, and large-scan's 200k images would take half a
// minute to index.
const ivfMaxImages = 50000

// storageLayer times the journal directly, with the workload's fsync
// policy: replay of the base journal, session and image appends, syncs.
func (rp *replay) storageLayer() map[string]metric {
	r := rp.r
	var replays []float64
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("%s/replay-%d.wal", r.dir, i)
		if err := copyFile(r.in.journal, path); err != nil {
			r.wrong("copy journal: %v", err)
			return nil
		}
		visual := r.in.visual[:r.w.images]
		start := time.Now()
		j, _, _, err := storage.OpenJournal(path, visual, feedbacklog.NewLog(len(visual)), storage.JournalOptions{Fsync: r.w.fsync})
		replays = append(replays, time.Since(start).Seconds())
		if err != nil {
			r.wrong("replay journal: %v", err)
			return nil
		}
		j.Close()
		os.Remove(path)
	}

	path := fmt.Sprintf("%s/probe.wal", r.dir)
	j, _, _, err := storage.OpenJournal(path, r.in.visual[:r.w.images], feedbacklog.NewLog(r.w.images), storage.JournalOptions{Fsync: r.w.fsync})
	if err != nil {
		r.wrong("open probe journal: %v", err)
		return nil
	}
	defer j.Close()
	rng := linalg.NewRNG(r.seed ^ 0x9b05688c2b3e6c1f)
	before := j.Size()
	for i := 0; i < probeCommits; i++ {
		judgments := map[int]feedbacklog.Judgment{}
		q := rng.Intn(r.w.images)
		for len(judgments) < topK {
			img := rng.Intn(r.w.images)
			judgments[img] = feedbacklog.Irrelevant
			if r.in.judge(q, img) {
				judgments[img] = feedbacklog.Relevant
			}
		}
		rp.tr.do("storage.append_session", -1, func() {
			if err := j.AppendSession(feedbacklog.Session{QueryImage: q, Judgments: judgments}); err != nil {
				r.wrong("append session: %v", err)
			}
		})
	}
	bytesPerSession := float64(j.Size()-before) / probeCommits
	for b := 0; b < probeIngests; b++ {
		batch := make([]linalg.Vector, ingestBatch)
		for k := range batch {
			batch[k] = r.in.jitter(rng, rng.Intn(r.in.real))
		}
		rp.tr.do("storage.append_images", -1, func() {
			if err := j.AppendImages(batch); err != nil {
				r.wrong("append images: %v", err)
			}
		})
	}

	// Syncs are timed on a journal that never syncs by itself, so each
	// one flushes exactly one freshly appended batch.
	unsynced, _, _, err := storage.OpenJournal(fmt.Sprintf("%s/sync.wal", r.dir), r.in.visual[:r.w.images], feedbacklog.NewLog(r.w.images), storage.JournalOptions{Fsync: storage.FsyncOff})
	if err != nil {
		r.wrong("open sync journal: %v", err)
		return nil
	}
	defer unsynced.Close()
	for b := 0; b < probeIngests; b++ {
		batch := make([]linalg.Vector, ingestBatch)
		for k := range batch {
			batch[k] = r.in.jitter(rng, rng.Intn(r.in.real))
		}
		if err := unsynced.AppendImages(batch); err != nil {
			r.wrong("append images: %v", err)
		}
		rp.tr.do("storage.sync", -1, func() {
			if err := unsynced.Sync(); err != nil {
				r.wrong("sync: %v", err)
			}
		})
	}
	return map[string]metric{
		"storage.replay_s":          {median(replays), "s"},
		"storage.append_session_us": {median(rp.tr.durations("storage.append_session", time.Microsecond)), "us"},
		"storage.append_images_us":  {median(rp.tr.durations("storage.append_images", time.Microsecond)), "us"},
		"storage.sync_ms":           {median(rp.tr.durations("storage.sync", time.Millisecond)), "ms"},
		"storage.bytes_per_session": {bytesPerSession, "B"},
	}
}
