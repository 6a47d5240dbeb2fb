//go:build !race

package sqlparse

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
