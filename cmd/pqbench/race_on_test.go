//go:build race

package main

// raceEnabled: the race detector slows the harness several times over, so
// the smoke test's time limit does not apply under it.
const raceEnabled = true
