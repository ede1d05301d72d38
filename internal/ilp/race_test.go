//go:build race

package ilp_test

func init() { raceEnabled = true }
