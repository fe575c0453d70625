//go:build !race

// Package israce tells tests whether the race detector is on: under it a
// single-goroutine test runs an order of magnitude slower with nothing for the
// detector to find.
package israce

// Enabled reports whether the binary was built with -race.
const Enabled = false
