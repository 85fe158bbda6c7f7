//go:build !race

package histstore

const raceEnabled = false
