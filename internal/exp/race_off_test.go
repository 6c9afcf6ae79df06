//go:build !race

package exp

// raceEnabled reports whether this test binary was built with the race
// detector. The full-harness golden check and the single-threaded
// replay differential skip under race: the detector slows the emulator
// loops by an order of magnitude, and the race coverage of the pool and
// the shared-emulation memos comes from the scaled-down specs.
const raceEnabled = false
