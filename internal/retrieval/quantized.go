package retrieval

import "lrfcsvm/internal/core"

// The quantized scan lane: engine-level configuration and observability for
// core.Euclidean.RankTopQuantized. The lane scans an int8 shadow copy of
// the collection (8× less memory traffic than the exact scan), keeps the
// k*Oversample images with the smallest approximate distance, and re-scores
// the survivors through the exact candidate-restricted path — so every
// score a client sees is bit-identical to the exhaustive scan's, and only
// membership in the top k is approximate. It complements the ANN lane:
// IVF pruning needs a built index (collections below the size floor never
// get one), while the quantized scan works at any collection size with no
// build step and no stale-index window after ingestion — the shadow copy is
// rebuilt lazily per collection epoch.

// QuantizedOptions configures the quantized scan lane for initial queries.
type QuantizedOptions struct {
	// Enable turns on the quantized approximate scan for initial queries
	// not served by the ANN index.
	Enable bool
	// Oversample multiplies k to size the approximate survivor pool
	// (top k*Oversample by approximate distance, then exact re-score).
	// <=0 selects core.DefaultQuantizedOversample. Larger values trade
	// exact-rescoring work for recall.
	Oversample int
}

// QuantizedStats is a snapshot of the quantized lane's state.
type QuantizedStats struct {
	// Enabled mirrors Options.Quantized.Enable.
	Enabled bool
	// Oversample is the resolved survivor multiplier.
	Oversample int
	// Queries counts initial queries served through the quantized lane
	// since the engine started.
	Queries int64
	// CodeBytes is the quantized shadow copy's code footprint for the
	// current collection epoch (one byte per dimension per image), or 0
	// when the lane is disabled (the copy is built lazily on first use).
	CodeBytes int64
}

// QuantizedStats reports the quantized lane's configuration and counters.
func (e *Engine) QuantizedStats() QuantizedStats {
	st := QuantizedStats{
		Enabled:    e.opts.Quantized.Enable,
		Oversample: e.opts.Quantized.Oversample,
		Queries:    e.quantQueries.Load(),
	}
	if st.Oversample <= 0 {
		st.Oversample = core.DefaultQuantizedOversample
	}
	if st.Enabled {
		ep := e.cur.Load()
		st.CodeBytes = int64(ep.batch.Len()) * int64(ep.batch.VisualSet().Dim())
	}
	return st
}
