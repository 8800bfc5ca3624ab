package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
)

// The verification set is fixed: the same queries on every run.
const verifySeed = 0xa54ff53a5f1d36f1

// Verification set sizes. The set runs in verifyRounds rounds; each checks
// its share of the queries and refines against a fresh snapshot, then
// probes its share of the commits and ingests.
const (
	verifyRounds  = 4
	verifyQueries = 40
	// iterSessions is how many verification sessions also have their
	// coupled training replayed to count SMO iterations.
	iterSessions = 6
	probeCommits = 1024
	probeIngests = 512
	ingestBatch  = 16 // images per probe ingest
)

// The ANN gate: annQueries initial queries to a server with the -ann path
// on, on workloads of at most annGateMaxImages images (building the index
// of large-scan's 200k images takes about half a minute), must reach a
// mean recall@20 of recallFloor against the exhaustive oracle.
const (
	annQueries       = 200
	annGateMaxImages = 50000
	recallFloor      = 0.9
)

// verifyResult is what the verification phase measured.
type verifyResult struct {
	precision  float64   // mean share of the refined top 20 in the query's category
	iterations []float64 // SMO iterations per replayed refine
}

// verify re-runs a fixed verification set over HTTP once the load has
// stopped and checks every answer bit for bit against oracles computed
// directly on an Engine.Snapshot with a freshly built batch:
//   - initial queries against core.Euclidean;
//   - lrf-csvm refines against core.RankTop.
//
// Between rounds it commits sessions and ingests batches one at a time,
// checking the log and the collection grow by exactly what was sent.
func (r *run) verify() verifyResult {
	rng := linalg.NewRNG(verifySeed)
	probes := linalg.NewRNG(verifySeed + 1)
	var res verifyResult
	var precs []float64
	for round := 0; round < verifyRounds; round++ {
		visual, fblog := r.st.engine.Snapshot()
		batch := core.NewCollectionBatch(visual)
		logVecs := fblog.RelevanceVectors()
		for i := 0; i < verifyQueries/verifyRounds; i++ {
			q := rng.Intn(r.w.images)
			var page []server.ResultJSON
			if err := timed(r.rec, "v.query", time.Now(), func() (err error) {
				page, err = r.c.query(q)
				return err
			}); err != nil {
				r.wrong("verification query %d: %v", q, err)
				continue
			}
			ectx := &core.QueryContext{Visual: visual, Query: q, Batch: batch}
			top, err := core.Euclidean{}.RankTop(ectx, topK)
			if err != nil {
				r.wrong("oracle query %d: %v", q, err)
				continue
			}
			if !sameRanking(page, top) {
				r.wrong("query %d differs from the exhaustive oracle", q)
			}

			js := r.judgePage(q, page)
			sid, err := r.openSession(q, js, "v.")
			if err != nil {
				r.wrong("verification session %d: %v", q, err)
				continue
			}
			var refined []server.ResultJSON
			if err := timed(r.rec, roundOps("v.refine")[round], time.Now(), func() (err error) {
				refined, err = r.c.refine(sid)
				return err
			}); err != nil {
				r.wrong("verification refine %d: %v", q, err)
				continue
			}
			labeled := make([]core.LabeledExample, len(js))
			for k, j := range js {
				labeled[k] = core.LabeledExample{Index: j.Image, Label: -1}
				if j.Relevant {
					labeled[k].Label = 1
				}
			}
			sort.Slice(labeled, func(a, b int) bool { return labeled[a].Index < labeled[b].Index })
			rctx := &core.QueryContext{Visual: visual, LogVectors: logVecs, Query: q, Labeled: labeled, Batch: batch}
			want, err := core.RankTop(core.LRFCSVM{}, rctx, topK)
			if err != nil {
				r.wrong("oracle refine %d: %v", q, err)
				continue
			}
			if !sameRanking(refined, want) {
				r.wrong("refine of query %d differs from core.RankTop on the snapshot", q)
			}
			rel := 0
			for _, p := range refined {
				if r.in.judge(q, p.Image) {
					rel++
				}
			}
			precs = append(precs, float64(rel)/float64(topK))
			if len(res.iterations) < iterSessions {
				if it, err := solverIterations(rctx); err != nil {
					r.wrong("replay training %d: %v", q, err)
				} else {
					res.iterations = append(res.iterations, float64(it))
				}
			}
		}
		r.probeCommits(probes, round)
		r.probeIngests(probes, round)
	}
	res.precision = mean(precs)
	return res
}

// annGate starts a second server over the workload's collection and log
// with the -ann path on, and sends it annQueries fixed initial queries over
// HTTP. Every returned score must equal the exhaustive score of that image
// bit for bit, and the mean recall@20 against core.Euclidean.RankTop on
// the snapshot must reach recallFloor.
func (r *run) annGate() {
	w := r.w
	w.ann = true
	st, err := startStack(r.in, w, filepath.Join(r.dir, "ann.wal"))
	if err != nil {
		r.wrong("set up the -ann server: %v", err)
		return
	}
	defer st.close()
	c := newClient(st.base)
	defer c.close()
	stats := st.engine.ANNStats()
	if stats.IndexedImages != len(r.in.visual) || stats.NProbe >= stats.Clusters {
		r.wrong("-ann server indexed %d of %d images, probing %d of %d cells: the pruned path would not run",
			stats.IndexedImages, len(r.in.visual), stats.NProbe, stats.Clusters)
		return
	}
	visual, _ := st.engine.Snapshot()
	batch := core.NewCollectionBatch(visual)
	rng := linalg.NewRNG(verifySeed + 2)
	var recalls []float64
	for i := 0; i < annQueries; i++ {
		q := rng.Intn(len(visual))
		var page []server.ResultJSON
		if err := timed(r.rec, "v.ann_query", time.Now(), func() (err error) {
			page, err = c.query(q)
			return err
		}); err != nil {
			r.wrong("ANN query %d: %v", q, err)
			continue
		}
		ectx := &core.QueryContext{Visual: visual, Query: q, Batch: batch}
		full, err := core.Euclidean{}.Rank(ectx)
		if err != nil {
			r.wrong("oracle query %d: %v", q, err)
			continue
		}
		top, err := core.Euclidean{}.RankTop(ectx, topK)
		if err != nil {
			r.wrong("oracle query %d: %v", q, err)
			continue
		}
		for _, p := range page {
			if math.Float64bits(p.Score) != math.Float64bits(full[p.Image]) {
				r.wrong("ANN query %d: image %d score %v, exhaustive %v", q, p.Image, p.Score, full[p.Image])
			}
		}
		recalls = append(recalls, recallAt(page, top))
	}
	recall := mean(recalls)
	fmt.Printf("ANN gate: recall@20 %.4f over %d queries (floor %.2f), %d cells, probing %d\n",
		recall, len(recalls), recallFloor, stats.Clusters, stats.NProbe)
	if !(recall >= recallFloor) {
		r.wrong("ANN recall@20 %.3f below the floor %.2f", recall, recallFloor)
	}
}

// roundOps names an operation's per-round series.
func roundOps(op string) []string {
	ops := make([]string, verifyRounds)
	for i := range ops {
		ops[i] = fmt.Sprintf("%s#%d", op, i)
	}
	return ops
}

// openSession starts a session for q over HTTP and records js in it.
func (r *run) openSession(q int, js []judgment, prefix string) (int, error) {
	var sid int
	if err := timed(r.rec, prefix+"session", time.Now(), func() (err error) {
		sid, err = r.c.startSession(q)
		return err
	}); err != nil {
		return 0, err
	}
	err := timed(r.rec, prefix+"judge", time.Now(), func() error { return r.c.judge(sid, js) })
	return sid, err
}

// probeCommits commits one round's share of sessions judging random pages,
// one at a time, checking each adds exactly one log session.
func (r *run) probeCommits(rng *linalg.RNG, round int) {
	st, err := r.c.status()
	r.rec.add("v.status", 0, err != nil)
	if err != nil {
		r.wrong("status: %v", err)
		return
	}
	var sessions []int
	for len(sessions) < probeCommits/verifyRounds {
		q := rng.Intn(st.Images)
		page := make([]server.ResultJSON, topK)
		for i := range page {
			page[i].Image = rng.Intn(st.Images)
		}
		sid, err := r.openSession(q, r.judgments(q, page), "v.prep.")
		if err != nil {
			r.wrong("probe session: %v", err)
			return
		}
		sessions = append(sessions, sid)
	}
	logSessions := st.LogSessions
	for _, sid := range sessions {
		var got int
		if err := timed(r.rec, roundOps("v.commit")[round], time.Now(), func() (err error) {
			got, err = r.c.commit(sid)
			return err
		}); err != nil {
			r.wrong("probe commit: %v", err)
			return
		}
		if logSessions++; got != logSessions {
			r.wrong("commit reported %d log sessions, want %d", got, logSessions)
		}
	}
}

// probeIngests ingests one round's share of batches one at a time,
// checking each lands at the end of the collection, and that the last image
// ingested is found by a query for itself.
func (r *run) probeIngests(rng *linalg.RNG, round int) {
	st, err := r.c.status()
	r.rec.add("v.status", 0, err != nil)
	if err != nil {
		r.wrong("status: %v", err)
		return
	}
	images := st.Images
	for b := 0; b < probeIngests/verifyRounds; b++ {
		batch := make([][]float64, ingestBatch)
		labels := make([]int, ingestBatch)
		for j := range batch {
			src := rng.Intn(r.in.real)
			batch[j] = r.in.jitter(rng, src)
			labels[j] = r.in.label(src)
		}
		var resp server.AddImagesResponse
		if err := timed(r.rec, roundOps("v.ingest")[round], time.Now(), func() (err error) {
			resp, err = r.c.ingest(batch)
			return err
		}); err != nil {
			r.wrong("probe ingest: %v", err)
			return
		}
		if resp.First != images || resp.Images != images+ingestBatch {
			r.wrong("ingest landed at %d (now %d images), want %d (%d)", resp.First, resp.Images, images, images+ingestBatch)
		}
		r.in.setLabels(resp.First, labels)
		images += ingestBatch
	}
	last := images - 1
	page, err := r.c.query(last)
	r.rec.add("v.query", 0, err != nil)
	if err != nil {
		r.wrong("query ingested image: %v", err)
		return
	}
	for _, p := range page {
		if p.Image == last {
			return
		}
	}
	r.wrong("ingested image %d missing from its own query's top %d", last, topK)
}

// solverIterations replays the coupled training of a refine and returns
// its SMO iterations.
func solverIterations(ctx *core.QueryContext) (int, error) {
	mods, labels, initial, err := core.LRFCSVM{}.TrainingProblem(ctx)
	if err != nil {
		return 0, err
	}
	cr, err := core.TrainCoupled(mods, labels, initial, core.CoupledConfig{Workers: retrieval.DefaultTrainWorkers})
	if err != nil {
		return 0, err
	}
	return cr.SolverIterations, nil
}

// sameRanking reports whether an HTTP ranking equals an oracle ranking in
// image ids and score bits.
func sameRanking(got []server.ResultJSON, want []core.Ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Image != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

func recallAt(got []server.ResultJSON, oracle []core.Ranked) float64 {
	in := make(map[int]bool, len(oracle))
	for _, o := range oracle {
		in[o.Index] = true
	}
	hit := 0
	for _, g := range got {
		if in[g.Image] {
			hit++
		}
	}
	return float64(hit) / float64(len(oracle))
}
