//go:build !race

package qmonitor

const raceEnabled = false
