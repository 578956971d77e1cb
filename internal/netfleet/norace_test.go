//go:build !race

package netfleet

const raceEnabled = false
