//go:build race

package semstore

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
