//go:build race

package connector

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
