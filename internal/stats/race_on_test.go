//go:build race

package stats

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
