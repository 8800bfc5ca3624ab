package retrieval

import (
	"context"
	"runtime"
	"testing"

	"lrfcsvm/internal/linalg"
)

// refineSchemes ranks a fixed initial query and one fixed feedback round
// under every scheme, returning the results in scheme order.
func refineSchemes(t *testing.T, e *Engine) [][]Result {
	t.Helper()
	ctx := context.Background()
	initial, err := e.InitialQuery(ctx, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := [][]Result{initial}
	for _, kind := range []SchemeKind{SchemeEuclidean, SchemeRFSVM, SchemeLRF2SVMs, SchemeLRFCSVM} {
		s, err := e.StartSession(3)
		if err != nil {
			t.Fatal(err)
		}
		for img, rel := range map[int]bool{3: true, 7: true, 11: true, 20: false, 40: false, 55: false} {
			if err := s.Judge(img, rel); err != nil {
				t.Fatal(err)
			}
		}
		results, err := s.Refine(ctx, kind, 20)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out = append(out, results)
	}
	return out
}

// sameResults fails the test unless got and want are bit-identical.
func sameResults(t *testing.T, got, want [][]Result) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("ranking %d has %d results, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("ranking %d position %d = %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// copyCollection copies every descriptor into fresh storage.
func copyCollection(vs []linalg.Vector) []linalg.Vector {
	out := make([]linalg.Vector, len(vs))
	for i, v := range vs {
		out[i] = append(linalg.Vector(nil), v...)
	}
	return out
}

// scramble overwrites every descriptor in place with its successor's values
// plus a shift, so no row keeps its original value.
func scramble(vs []linalg.Vector) {
	first := append(linalg.Vector(nil), vs[0]...)
	for i := range vs {
		next := first
		if i+1 < len(vs) {
			next = vs[i+1]
		}
		for d := range vs[i] {
			vs[i][d] = next[d] + 1
		}
	}
}

// TestNewEngineDoesNotAliasInput mutates the descriptors a caller handed to
// NewEngine and expects every ranking to stay bit-identical to an engine
// whose input was left untouched: the engine copies the rows into its own
// store and reads nothing through the caller's vectors.
func TestNewEngineDoesNotAliasInput(t *testing.T) {
	visual, _, log := testCollection(t)
	untouched, err := NewEngine(copyCollection(visual), log.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := refineSchemes(t, untouched)

	input := copyCollection(visual)
	e, err := NewEngine(input, log.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	scramble(input)
	sameResults(t, refineSchemes(t, e), want)
	snap, _ := e.Snapshot()
	for i := range visual {
		if !snap[i].Equal(visual[i], 0) {
			t.Fatalf("snapshot row %d = %v, want the descriptor the engine was built from %v", i, snap[i], visual[i])
		}
	}
}

// TestSnapshotIsIndependentCopy mutates a snapshot and expects the engine's
// rankings, and its next snapshot, to be unaffected.
func TestSnapshotIsIndependentCopy(t *testing.T) {
	visual, _, log := testCollection(t)
	untouched, err := NewEngine(copyCollection(visual), log.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := refineSchemes(t, untouched)

	e, err := NewEngine(copyCollection(visual), log.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot()
	scramble(snap)
	sameResults(t, refineSchemes(t, e), want)
	again, _ := e.Snapshot()
	for i := range visual {
		if !again[i].Equal(visual[i], 0) {
			t.Fatalf("snapshot row %d = %v after mutating an earlier snapshot, want %v", i, again[i], visual[i])
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
// Two cycles clear the sync.Pool victim caches of the scoring scratch
// arenas, which are reusable buffers rather than retained state.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprintEngine builds an engine over n random descriptors of the given
// dimension that it alone references once it returns.
func footprintEngine(t *testing.T, n, dim int) *Engine {
	t.Helper()
	rng := linalg.NewRNG(17)
	visual := make([]linalg.Vector, n)
	for i := range visual {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = rng.Normal(0, 1)
		}
		visual[i] = v
	}
	e, err := NewEngine(visual, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineFootprint pins the engine's resident collection bytes: once the
// caller has dropped its descriptors the engine holds one copy of the rows
// plus their norms (within 10% of the raw row bytes), and a first RF-SVM
// refinement — which reads no log columns — retains less than 8 bytes per
// image: no per-row view and no collection-sized distance row.
func TestEngineFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 65,536-image collection")
	}
	const n, dim = 65536, 36
	base := liveHeap()
	e := footprintEngine(t, n, dim)
	built := liveHeap()
	raw := float64(n * dim * 8)
	added := float64(built) - float64(base)
	t.Logf("engine: %.1f B/image (%.3fx raw rows)", added/n, added/raw)
	if added > 1.10*raw {
		t.Errorf("engine holds %.0f B of heap, %.2fx the %.0f B of raw rows (limit 1.10x)", added, added/raw, raw)
	}

	s, err := e.StartSession(5)
	if err != nil {
		t.Fatal(err)
	}
	for img, rel := range map[int]bool{5: true, 9: true, 100: false, 2000: false} {
		if err := s.Judge(img, rel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Refine(context.Background(), SchemeRFSVM, 20); err != nil {
		t.Fatal(err)
	}
	refined := liveHeap()
	perImage := (float64(refined) - float64(built)) / n
	t.Logf("first rf-svm refine retained %.2f B/image", perImage)
	if perImage >= 8 {
		t.Errorf("first rf-svm refine retained %.1f B/image, want < 8", perImage)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(s)
}

// TestSnapshotConcurrentWithIngestion takes snapshots while images are
// ingested: the rows are copied outside the mutation lock, so each snapshot
// must still be one consistent epoch — as many rows as its log covers, each
// equal to the descriptor ingested at that index. Run under -race it also
// checks the copy never reads a tail row a concurrent grow is writing.
func TestSnapshotConcurrentWithIngestion(t *testing.T) {
	visual, _, log := testCollection(t)
	e, err := NewEngine(copyCollection(visual), log, Options{ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 40
	all := copyCollection(visual)
	for i := 0; i < batches; i++ {
		all = append(all, linalg.Vector{float64(i), -float64(i), 0.5})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := len(visual); i < len(all); i++ {
			if _, err := e.AddImages(context.Background(), all[i:i+1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		snap, snapLog := e.Snapshot()
		if len(snap) != snapLog.NumImages() {
			t.Fatalf("snapshot has %d rows, its log covers %d images", len(snap), snapLog.NumImages())
		}
		for i, row := range snap {
			if !row.Equal(all[i], 0) {
				t.Fatalf("snapshot row %d = %v, want %v", i, row, all[i])
			}
		}
		if len(snap) == len(all) {
			break
		}
		select {
		case <-done:
			if n := e.NumImages(); n != len(all) {
				t.Fatalf("ingestion stopped at %d of %d images", n, len(all))
			}
		default:
		}
	}
	<-done
}
