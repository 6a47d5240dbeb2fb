//go:build !race

package federation

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
