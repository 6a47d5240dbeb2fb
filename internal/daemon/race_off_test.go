//go:build !race

package daemon_test

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
