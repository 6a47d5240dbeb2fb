//go:build !race

package bench

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
