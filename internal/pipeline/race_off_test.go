//go:build !race

package pipeline

// raceEnabled reports whether this test binary was built with the race
// detector. The all-cells differential skips under race: it runs on one
// goroutine, so the detector would only slow the emulator loops by an
// order of magnitude.
const raceEnabled = false
