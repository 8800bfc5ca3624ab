package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/server"
)

// pageStats tracks how mixed the judged pages are.
type pageStats struct {
	mu     sync.Mutex
	shares []float64 // share of relevant images per judged page
	single int       // pages judged all relevant or all irrelevant
}

// judgments returns the simulated user's verdicts on images for query.
func (r *run) judgments(query int, images []server.ResultJSON) []judgment {
	js := make([]judgment, len(images))
	for i, res := range images {
		js[i] = judgment{Image: res.Image, Relevant: r.in.judge(query, res.Image)}
	}
	return js
}

// judgePage judges a result page for query and records its composition.
func (r *run) judgePage(query int, page []server.ResultJSON) []judgment {
	js := r.judgments(query, page)
	if len(js) < topK {
		return js // a partial page of newly shown images
	}
	rel := 0
	for _, j := range js {
		if j.Relevant {
			rel++
		}
	}
	r.pages.mu.Lock()
	defer r.pages.mu.Unlock()
	r.pages.shares = append(r.pages.shares, float64(rel)/float64(len(js)))
	if rel == 0 || rel == len(js) {
		r.pages.single++
	}
	return js
}

// queryPoolSize is how many distinct images the closed loops query: a
// fixed population of queries, like the paper's 200-query evaluation. A
// run covers the whole pool, so its figures do not hinge on which of the
// collection's images a seed happened to draw; the seed orders the pool.
const queryPoolSize = 100

// querySequence returns the closed-loop query stream for seed: the fixed
// pool in a fresh seeded order per lap, long enough for any run. The load
// and the traced run both take its entries in order.
func querySequence(seed uint64, n int) []int {
	pool := linalg.NewRNG(collectionSeed ^ 0x243f6a8885a308d3).Perm(n)[:min(queryPoolSize, n)]
	rng := linalg.NewRNG(seed*7919 + 1)
	var seq []int
	for lap := 0; lap < 400; lap++ {
		for _, i := range rng.Perm(len(pool)) {
			seq = append(seq, pool[i])
		}
	}
	return seq
}

// cycle runs one closed-loop feedback cycle over HTTP: query, start a
// session, judge the page, refine; with feedback on, judge the newly shown
// images, refine again and commit.
func (r *run) cycle(rec *recorder, q int) error {
	c := r.c
	var page []server.ResultJSON
	if err := timed(rec, "query", time.Now(), func() (err error) {
		page, err = c.query(q)
		return err
	}); err != nil {
		return err
	}
	var sid int
	if err := timed(rec, "session", time.Now(), func() (err error) {
		sid, err = c.startSession(q)
		return err
	}); err != nil {
		return err
	}
	js := r.judgePage(q, page)
	if err := timed(rec, "judge", time.Now(), func() error { return c.judge(sid, js) }); err != nil {
		return err
	}
	var refined []server.ResultJSON
	if err := timed(rec, "refine", time.Now(), func() (err error) {
		refined, err = c.refine(sid)
		return err
	}); err != nil {
		return err
	}
	if !r.w.feedback {
		return nil
	}
	judged := make(map[int]bool, len(js))
	for _, j := range js {
		judged[j.Image] = true
	}
	var fresh []judgment
	for _, res := range refined {
		if !judged[res.Image] {
			fresh = append(fresh, judgment{Image: res.Image, Relevant: r.in.judge(q, res.Image)})
		}
	}
	if len(fresh) > 0 {
		if err := timed(rec, "judge", time.Now(), func() error { return c.judge(sid, fresh) }); err != nil {
			return err
		}
	}
	if err := timed(rec, "refine2", time.Now(), func() (err error) {
		_, err = c.refine(sid)
		return err
	}); err != nil {
		return err
	}
	return timed(rec, "commit", time.Now(), func() (err error) {
		_, err = c.commit(sid)
		return err
	})
}

// warmupCycles run before timing starts in each episode, so lazy set-up
// (kernel bandwidth estimates, scratch pools, connections) is done.
const warmupCycles = 4

// episodeCycles is how many cycles one episode of a committing closed loop
// runs before the server is set up afresh. Every commit grows the log and
// slows later refines, so over a whole run the log would grow with the
// program's own speed and a faster build would be measured against a
// bigger log. Episodes give every run, and every build, the same log
// trajectory: the 150 simulated sessions plus up to episodeCycles commits.
const episodeCycles = 200

// closedLoop runs feedback cycles until r.dur elapses and returns the
// segments its figures are medians over: each complete episode when the
// cycles commit, else up to loadWindows equal slices of the run with about
// minSegmentCycles cycles or more each. A build too slow to complete an
// episode by the deadline runs its first episode on for up to another
// r.dur, and that episode counts even if cut then: a slow build is
// measured as slow, not left without figures.
func (r *run) closedLoop() []segment {
	seq := querySequence(r.seed, len(r.in.visual))
	warmup := querySequence(r.seed^0xbb67ae8584caa73b, len(r.in.visual))[:warmupCycles]
	deadline := time.Now().Add(r.dur)
	var episodes []segment
	for ep := 0; time.Now().Before(deadline); ep++ {
		if ep > 0 {
			if err := r.restart(fmt.Sprintf("episode-%d.wal", ep)); err != nil {
				r.wrong("restart for episode %d: %v", ep, err)
				break
			}
		}
		warm := newRecorder()
		for _, q := range warmup {
			if err := r.cycle(warm, q); err != nil {
				r.fail("warm-up cycle: %v", err)
			}
		}
		r.rec.count("warm-up", warm)
		end := deadline
		if ep == 0 && r.w.feedback {
			end = deadline.Add(r.dur)
		}
		from := time.Now()
		i := 0
		for ; time.Now().Before(end) && (!r.w.feedback || i < episodeCycles); i++ {
			begin := time.Now()
			if err := r.cycle(r.rec, seq[i%len(seq)]); err != nil {
				r.fail("cycle: %v", err)
				continue
			}
			r.cycles.add("cycle", time.Since(begin), false)
		}
		if !r.w.feedback {
			return equalSegments(from, time.Now(), min(loadWindows, max(i/minSegmentCycles, 1)))
		}
		if i < episodeCycles && ep == 0 {
			fmt.Printf("note: slow build: the first episode was cut at %d of %d cycles, %.0f s into the load\n", i, episodeCycles, time.Since(from).Seconds())
		}
		if i == episodeCycles || ep == 0 {
			episodes = append(episodes, segment{from, time.Now()})
		}
	}
	return episodes
}

// restart replaces the running server with a freshly set-up one whose
// journal is named journal in the run's directory.
func (r *run) restart(journal string) error {
	r.c.close()
	r.st.close()
	st, err := startStack(r.in, r.w, filepath.Join(r.dir, journal))
	if err != nil {
		r.st = nil
		return err
	}
	r.st = st
	r.c = newClient(st.base)
	return nil
}
