//go:build !race

package network

// raceDetector reports that the test binary was built with -race.
const raceDetector = false
