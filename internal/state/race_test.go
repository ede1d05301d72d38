//go:build race

package state

func init() { raceEnabled = true }
