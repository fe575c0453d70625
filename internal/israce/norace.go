//go:build !race

// Package israce tells tests whether the race detector is on. Under it a
// sync.Pool drops a quarter of what it is given — so a run finds no kept
// arena a quarter of the time, and allocation budgets measured without it
// do not hold — and single-goroutine tests run an order of magnitude slower
// with nothing for the detector to find.
package israce

// Enabled reports whether the binary was built with -race.
const Enabled = false
