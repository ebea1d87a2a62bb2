//go:build race

package sparqluo_test

// raceEnabled lets heavyweight tests (TestMatrix's grid) shrink their
// fixtures when the race detector multiplies their cost; the race build
// still covers every code path, just on smaller data.
const raceEnabled = true
