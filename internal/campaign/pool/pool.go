// Package pool provides the bounded worker pool every batch layer of the
// simulator schedules on. Campaign grids and the public batch API run on
// one scheduler (campaign.Plan) over one GOMAXPROCS-sized pool by default,
// so peak concurrency stays bounded no matter how many scenario cells a
// sweep expands to — unlike the seed implementation, which spawned one
// goroutine per seed with no cap.
//
// The pool uses work donation: a caller's own goroutine always executes
// jobs, and up to Workers()-1 helper goroutines are borrowed from a shared
// token bucket. Because callers never block waiting for a free worker,
// nested Do calls (a batch whose units themselves fan out) cannot deadlock.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError reports a job that panicked. The pool recovers panics on
// both caller and helper goroutines — a panic on a borrowed helper would
// otherwise kill the whole process, skipping every deferred cleanup in
// the caller's stack — and surfaces them as ordinary job errors carrying
// the panic value and stack.
type PanicError struct {
	Index int
	Value string
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %s\n%s", e.Index, e.Value, e.Stack)
}

// runJob executes one job under a recover guard.
func runJob(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return fn(i)
}

// Pool runs batches of indexed jobs with bounded concurrency.
type Pool struct {
	workers int
	// slots are helper-goroutine tokens. Capacity is workers-1: the
	// caller's goroutine is the remaining worker.
	slots chan struct{}
}

// New returns a pool allowing up to workers concurrently executing jobs
// per caller. Values below 1 are treated as 1 (fully serial execution).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, slots: make(chan struct{}, workers-1)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Shared returns the process-wide default pool, sized to GOMAXPROCS. A
// caller that wants another bound passes its own pool instead.
var Shared = sync.OnceValue(func() *Pool { return New(runtime.GOMAXPROCS(0)) })

// Do runs fn(0)..fn(n-1) with at most Workers() of them executing at once
// and returns after all have completed. The calling goroutine participates
// in the work, so Do never deadlocks even when fn itself calls Do on the
// same pool; helper goroutines across all concurrent callers are bounded
// by Workers()-1. On failure Do returns the error of the lowest-indexed
// failing job, which is deterministic regardless of scheduling order. A
// job that panics fails with a *PanicError (value + stack) instead of
// killing the process.
func (p *Pool) Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = runJob(fn, i)
		}
	}
	var wg sync.WaitGroup
spawn:
	for i := 0; i < n-1; i++ {
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.slots }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
