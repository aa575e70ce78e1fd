//go:build race

package queries

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
