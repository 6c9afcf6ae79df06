//go:build race

package exp

// raceEnabled: see race_off_test.go.
const raceEnabled = true
