//go:build race

package israce

// Enabled reports whether the binary was built with -race.
const Enabled = true
