package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"
)

// RedialOptions tunes a Redialer. The zero value retries three times per
// outage.
type RedialOptions struct {
	// Attempts is the number of dials tried per connection outage before
	// giving up (0 means 3). The first attempt is immediate; later ones
	// back off exponentially.
	Attempts int
	// Logf reports outages, retries and reconnects; nil discards.
	Logf func(format string, args ...any)
}

// The backoff: the wait before the second attempt, doubling per attempt up
// to the cap.
const (
	redialBaseDelay = 250 * time.Millisecond
	redialMaxDelay  = 5 * time.Second
)

// Redialer is a Worker that survives connection loss: when the
// coordinator link drops mid-grid it re-dials with capped jittered
// exponential backoff and resumes the lease loop. Safe because the cell is
// the unit of recovery — the coordinator requeues whatever the dropped
// connection held, duplicate cell deliveries are ignored, and results are
// deterministic, so a re-run cell is bit-identical to the lost one.
type Redialer struct {
	addr, name string
	opt        RedialOptions
	// redialBaseDelay and redialMaxDelay; fields so that the package's
	// tests can shorten them before the first dial.
	baseDelay, maxDelay time.Duration
	rng                 *rand.Rand
	w                   *Worker
	conn                io.Closer
}

// DialReconnect connects to a coordinator at addr like Dial, but returns
// a Redialer; the initial dial itself is retried under the same backoff
// policy, so workers may be started before the coordinator listens.
func DialReconnect(addr, name string, opt RedialOptions) (*Redialer, error) {
	r := newRedialer(addr, name, opt)
	if err := r.redial(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// newRedialer is DialReconnect before the first dial.
func newRedialer(addr, name string, opt RedialOptions) *Redialer {
	if opt.Attempts <= 0 {
		opt.Attempts = 3
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	// Jitter draws from a name-seeded stream: deterministic per worker for
	// reproducible tests, decorrelated across a fleet so a coordinator
	// restart is not greeted by synchronized redials.
	return &Redialer{addr: addr, name: name, opt: opt,
		baseDelay: redialBaseDelay, maxDelay: redialMaxDelay,
		rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// ServeGrid is Worker.ServeGrid with transport-level recovery: only
// errors matching ErrTransport — the connection failed, the work itself
// is untainted — trigger a redial and re-enter the lease loop for the
// same grid (a grid completed meanwhile answers grid_done on the first
// ready). Everything else passes through: campaign shutdown, cell
// failures and panics (ErrCell/ErrCellPanic), and protocol violations
// are deterministic, so retrying would loop forever.
func (r *Redialer) ServeGrid(src CellSet) error {
	for {
		err := r.w.ServeGrid(src)
		if err == nil || !errors.Is(err, ErrTransport) {
			return err
		}
		if rerr := r.redial(err); rerr != nil {
			return rerr
		}
	}
}

// Close closes the current connection, if any.
func (r *Redialer) Close() error {
	if r.conn == nil {
		return nil
	}
	return r.conn.Close()
}

func (r *Redialer) logf(format string, args ...any) {
	if r.opt.Logf != nil {
		r.opt.Logf(format, args...)
	}
}

// redial replaces the connection, trying up to opt.Attempts dials.
// cause is the connection error that forced the redial (nil on the
// initial dial).
func (r *Redialer) redial(cause error) error {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	if cause != nil {
		r.logf("dist: %s: connection lost (%v), redialing %s", r.name, cause, r.addr)
	}
	var delay time.Duration
	for attempt := 1; ; attempt++ {
		if delay > 0 {
			// Full backoff would synchronize retries across workers that
			// lost the same coordinator; spread each wait over [d/2, d].
			time.Sleep(delay/2 + time.Duration(r.rng.Int63n(int64(delay/2)+1)))
		}
		w, closer, err := Dial(r.addr, r.name)
		if err == nil {
			r.w, r.conn = w, closer
			if attempt > 1 || cause != nil {
				r.logf("dist: %s: connected to %s (attempt %d)", r.name, r.addr, attempt)
			}
			return nil
		}
		r.logf("dist: %s: dial %s attempt %d/%d: %v", r.name, r.addr, attempt, r.opt.Attempts, err)
		if attempt >= r.opt.Attempts {
			if cause != nil {
				return fmt.Errorf("dist: %s: reconnect to %s failed after %d attempts (connection lost: %v): %w",
					r.name, r.addr, attempt, cause, err)
			}
			return fmt.Errorf("dist: %s: connect %s failed after %d attempts: %w",
				r.name, r.addr, attempt, err)
		}
		if delay == 0 {
			delay = r.baseDelay
		} else if delay *= 2; delay > r.maxDelay {
			delay = r.maxDelay
		}
	}
}
