//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. It drops a
// share of sync.Pool puts on purpose, so pooled scratch memory is
// reallocated and allocation pins do not hold under it.
const raceEnabled = true
