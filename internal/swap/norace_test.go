//go:build !race

package swap

// raceEnabled reports whether the race detector is compiled in. See
// race_test.go for why the allocation tests check it.
const raceEnabled = false
