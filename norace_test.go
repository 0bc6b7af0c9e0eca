//go:build !race

package spacebooking

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
