package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"

	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/eval"
	"lrfcsvm/internal/features"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/storage"
)

// inputs are the seed-determined inputs of one run. The program under test
// only ever sees these generated descriptors and log sessions.
type inputs struct {
	// visual holds the normalized 36-d descriptors: the first real images
	// are extracted from the eval.Paper20 renderings, the rest are drawn
	// around them (see jitter).
	visual []linalg.Vector
	// labels is the ground-truth category of every image; the simulated
	// user judges by it. Ingestion during a run extends it under mu.
	mu     sync.RWMutex
	labels []int
	real   int
	// journal holds the simulated 150-session feedback log; every set-up
	// replays it.
	journal string
	// catStd is the per-category, per-dimension spread of the real
	// descriptors; grown and ingested images are drawn with it.
	catStd [][]float64
}

// collectionSeed fixes the collection and its log: every run of a workload
// serves the same images, so run-to-run spread reflects the traffic sample
// and the host, not a different dataset. The run's -seed draws the traffic.
const collectionSeed = 1

// makeInputs extracts the paper-scale collection, simulates its feedback
// log, grows the collection to n images and writes the log to a journal
// under dir.
func makeInputs(n int, dir string) (*inputs, error) {
	cfg := eval.Paper20(collectionSeed)
	gen, err := dataset.NewGenerator(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	var ex features.Extractor
	raw := ex.ExtractAll(gen, runtime.GOMAXPROCS(0))
	norm, err := features.FitNormalizer(raw)
	if err != nil {
		return nil, err
	}
	in := &inputs{visual: norm.ApplyAll(raw), labels: gen.Labels()}
	in.real = len(in.visual)
	fblog, err := feedbacklog.Simulate(in.visual, in.labels, cfg.Log)
	if err != nil {
		return nil, err
	}
	in.catStd = categorySpread(in.visual, in.labels, gen.NumCategories())
	rng := linalg.NewRNG(collectionSeed ^ 0x6a09e667f3bcc908)
	for len(in.visual) < n {
		src := rng.Intn(in.real)
		in.visual = append(in.visual, in.jitter(rng, src))
		in.labels = append(in.labels, in.labels[src])
	}

	// The log was collected over the real images; the grown images join
	// the collection afterwards, with no log history.
	in.journal = filepath.Join(dir, "base.wal")
	j, _, _, err := storage.OpenJournal(in.journal, in.visual, feedbacklog.NewLog(len(in.visual)), storage.JournalOptions{Fsync: storage.FsyncOff})
	if err != nil {
		return nil, fmt.Errorf("write base journal: %w", err)
	}
	for _, s := range fblog.Sessions() {
		if err := j.AppendSession(s); err != nil {
			j.Close()
			return nil, fmt.Errorf("write base journal: %w", err)
		}
	}
	if err := j.Close(); err != nil {
		return nil, fmt.Errorf("write base journal: %w", err)
	}
	return in, nil
}

// growSpread scales the per-category spread of the Gaussian that grown
// images are drawn from. At 1.3 the judged top-20 pages of the 50k and
// 200k collections are as mixed as the real 2,000-image collection's
// (about three quarters relevant, a fifth single-class).
const growSpread = 1.3

// jitter draws a new descriptor around real image src from a Gaussian with
// growSpread times the spread of src's category. Growing by small jitter
// copies or by convex mixes of same-category images packs each query's
// neighbourhood with its own category, so judged pages turn single-class
// and the SVMs train on degenerate problems.
func (in *inputs) jitter(rng *linalg.RNG, src int) linalg.Vector {
	std := in.catStd[in.label(src)]
	v := make(linalg.Vector, len(in.visual[src]))
	for d := range v {
		v[d] = in.visual[src][d] + rng.Normal(0, growSpread*std[d])
	}
	return v
}

func categorySpread(visual []linalg.Vector, labels []int, categories int) [][]float64 {
	dim := len(visual[0])
	sum := make([][]float64, categories)
	sq := make([][]float64, categories)
	count := make([]float64, categories)
	for c := range sum {
		sum[c], sq[c] = make([]float64, dim), make([]float64, dim)
	}
	for i, v := range visual {
		c := labels[i]
		count[c]++
		for d, x := range v {
			sum[c][d] += x
			sq[c][d] += x * x
		}
	}
	std := make([][]float64, categories)
	for c := range std {
		std[c] = make([]float64, dim)
		for d := range std[c] {
			m := sum[c][d] / count[c]
			std[c][d] = math.Sqrt(math.Max(sq[c][d]/count[c]-m*m, 0))
		}
	}
	return std
}

// copyVisual deep-copies descriptors so that each set-up hands the engine
// a collection it owns outright, as a server loading from disk would.
func copyVisual(vs []linalg.Vector) []linalg.Vector {
	flat := make([]float64, 0, len(vs)*len(vs[0]))
	out := make([]linalg.Vector, len(vs))
	for i, v := range vs {
		flat = append(flat, v...)
		out[i] = flat[len(flat)-len(v) : len(flat) : len(flat)]
	}
	return out
}

// judge returns the simulated user's verdict on image for query: relevant
// when both share a ground-truth category.
func (in *inputs) judge(query, image int) bool {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if image >= len(in.labels) {
		return false
	}
	return in.labels[image] == in.labels[query]
}

// label returns the ground-truth category of image.
func (in *inputs) label(image int) int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.labels[image]
}

// setLabels records the categories of images ingested at first, first+1, ...
func (in *inputs) setLabels(first int, labels []int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.labels) < first+len(labels) {
		in.labels = append(in.labels, -1)
	}
	copy(in.labels[first:], labels)
}
