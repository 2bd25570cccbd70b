//go:build race

package swap

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under it because its instrumentation allocates.
const raceEnabled = true
