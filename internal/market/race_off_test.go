//go:build !race

package market

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
