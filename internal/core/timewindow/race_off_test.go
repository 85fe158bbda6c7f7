//go:build !race

package timewindow

const raceEnabled = false
