//go:build race

package pipeline

// raceEnabled: see race_off_test.go.
const raceEnabled = true
