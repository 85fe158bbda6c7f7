//go:build race

package qmonitor

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it on purpose, so steady-state allocation counts of pooled code
// do not hold.
const raceEnabled = true
