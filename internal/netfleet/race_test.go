//go:build race

package netfleet

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// puts on purpose, so allocation counts do not hold.
const raceEnabled = true
