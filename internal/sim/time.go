// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package in this repository runs on:
// the radio medium, the 802.11 MAC, the forwarding schemes and the transport
// protocols all advance by scheduling events on a single Engine. Events fire
// in strict (time, insertion-sequence) order, so a run is fully reproducible
// given the same seed.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since the start of the
// run. Durations are also expressed as Time; the zero value is both "the
// beginning of the simulation" and "zero duration".
type Time int64

// Duration units. These mirror time.Duration but are separate on purpose:
// simulated time never mixes with wall-clock time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit, e.g. "34µs" or "1.25s".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gµs", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
