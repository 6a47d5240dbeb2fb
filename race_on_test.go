//go:build race

package payless

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
