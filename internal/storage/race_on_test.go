//go:build race

package storage

// RaceEnabled reports that the test binary was built with -race; the
// external tests read it too.
const RaceEnabled = true
