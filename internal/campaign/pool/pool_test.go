package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryJobOnce(t *testing.T) {
	p := New(4)
	const n = 100
	var counts [n]atomic.Int64
	if err := p.Do(n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		var running, peak atomic.Int64
		err := p.Do(50, func(int) error {
			r := running.Add(1)
			for {
				old := peak.Load()
				if r <= old || peak.CompareAndSwap(old, r) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int64(workers) {
			t.Errorf("workers=%d: peak concurrency %d", workers, got)
		}
	}
}

func TestNestedDoDoesNotDeadlock(t *testing.T) {
	p := New(2)
	done := make(chan error, 1)
	go func() {
		done <- p.Do(4, func(int) error {
			return p.Do(4, func(int) error {
				time.Sleep(time.Millisecond)
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested Do deadlocked")
	}
}

func TestDoReturnsLowestIndexedError(t *testing.T) {
	p := New(8)
	for trial := 0; trial < 10; trial++ {
		err := p.Do(64, func(i int) error {
			if i%3 == 1 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 1 failed" {
			t.Fatalf("trial %d: err = %v, want job 1's error", trial, err)
		}
	}
}

func TestDoZeroJobsAndMinWorkers(t *testing.T) {
	if err := New(0).Do(0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	if w := New(-3).Workers(); w != 1 {
		t.Fatalf("Workers() = %d, want clamp to 1", w)
	}
}

// TestSharedPoolIsOneGOMAXPROCSPool: every caller gets the same pool, bounded
// by GOMAXPROCS.
func TestSharedPoolIsOneGOMAXPROCSPool(t *testing.T) {
	p := Shared()
	if p != Shared() {
		t.Fatal("Shared returned two pools")
	}
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("shared pool workers = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestDoRecoversPanic: a panicking job must not kill the process (a panic
// on a borrowed helper goroutine otherwise would); it fails as an ordinary
// job error carrying the panic value and stack, and every other job still
// runs to completion.
func TestDoRecoversPanic(t *testing.T) {
	p := New(4)
	var ran atomic.Int64
	err := p.Do(8, func(i int) error {
		if i == 3 {
			panic("job exploded")
		}
		ran.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do error = %v, want *PanicError", err)
	}
	if pe.Index != 3 || pe.Value != "job exploded" || pe.Stack == "" {
		t.Errorf("PanicError = {Index:%d Value:%q Stack:%d bytes}, want job 3 with stack",
			pe.Index, pe.Value, len(pe.Stack))
	}
	if n := ran.Load(); n != 7 {
		t.Errorf("surviving jobs ran %d times, want 7", n)
	}
}

// TestDoPanicReportsLowestIndex: like plain errors, concurrent panics
// resolve deterministically to the lowest failing index.
func TestDoPanicReportsLowestIndex(t *testing.T) {
	p := New(4)
	err := p.Do(16, func(i int) error {
		if i%2 == 1 {
			panic(i)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("Do error = %v, want *PanicError for job 1", err)
	}
}
