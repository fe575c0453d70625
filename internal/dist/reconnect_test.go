package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyProxy forwards TCP connections to target. The first connection is
// killed after cutAfter client→server protocol frames have passed —
// mid-grid, from the worker's point of view — and every later connection
// is piped untouched. conns counts accepted connections.
func flakyProxy(t *testing.T, target string, cutAfter int, conns *int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			n := atomic.AddInt32(conns, 1)
			go func(cli net.Conn, first bool) {
				defer cli.Close()
				srv, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer srv.Close()
				go io.Copy(cli, srv) // server→client, raw
				if !first {
					io.Copy(srv, cli)
					return
				}
				// Client→server frame by frame so the cut lands at a frame
				// boundary: the worker has delivered work, then loses the
				// link while awaiting its next lease.
				in, out := NewConn(cli), NewConn(srv)
				for i := 0; i < cutAfter; i++ {
					m, err := in.Recv()
					if err != nil {
						return
					}
					if err := out.Send(m); err != nil {
						return
					}
				}
			}(cli, n == 1)
		}
	}()
	return ln.Addr().String()
}

// TestReconnectResumesGrid is the reconnect bar: a worker whose
// connection dies mid-grid redials and finishes the grid, with output
// identical to an undisturbed run. The first connection carries hello,
// ready, one delivered cell and one more ready before the proxy cuts it;
// the forfeited lease is requeued and re-earned over the second
// connection.
func TestReconnectResumesGrid(t *testing.T) {
	src := fakeCells{fp: "re", n: 6, fail: -1}
	c := NewCoordinator(Options{Logf: t.Logf})
	addr, stop, err := Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var conns int32
	proxy := flakyProxy(t, addr.String(), 4, &conns)

	wdone := make(chan error, 1)
	go func() {
		w, err := DialReconnect(proxy, "flappy", RedialOptions{Attempts: 5, Logf: t.Logf})
		if err != nil {
			wdone <- err
			return
		}
		defer w.Close()
		wdone <- w.ServeGrid(src)
	}()
	out, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wdone; err != nil {
		t.Fatalf("reconnecting worker: %v", err)
	}
	c.Close()
	for i, p := range out.Payloads {
		if string(p) != fmt.Sprintf("[%d]", i) {
			t.Errorf("payload %d = %s", i, p)
		}
	}
	if n := atomic.LoadInt32(&conns); n < 2 {
		t.Errorf("connections = %d, want ≥ 2 (no reconnect happened)", n)
	}
}

// TestReconnectGivesUp pins the bounded-retry contract: with nothing
// listening, the first dial fails after exactly Attempts tries rather
// than hanging.
func TestReconnectGivesUp(t *testing.T) {
	// A port that was just listening and no longer is.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	attempts := 0
	r := newRedialer(dead, "hopeless", RedialOptions{
		Attempts: 3,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "attempt") {
				attempts++
			}
		},
	})
	r.baseDelay, r.maxDelay = time.Millisecond, time.Millisecond
	err = r.redial(nil)
	if err == nil {
		t.Fatal("DialReconnect succeeded against a dead address")
	}
	if attempts != 3 {
		t.Errorf("dial attempts = %d, want 3", attempts)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not name the attempt count: %v", err)
	}
}

// TestReconnectNoRetryOnCellError: a deterministic cell failure must
// surface immediately — redialing would re-run the same failing cell
// against an already-poisoned campaign.
func TestReconnectNoRetryOnCellError(t *testing.T) {
	src := fakeCells{fp: "reboom", n: 4, fail: 1}
	c := NewCoordinator(Options{})
	addr, stop, err := Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var conns int32
	proxy := flakyProxy(t, addr.String(), 1<<30, &conns) // never cuts

	wdone := make(chan error, 1)
	go func() {
		w, err := DialReconnect(proxy, "boomw", RedialOptions{Attempts: 5})
		if err != nil {
			wdone <- err
			return
		}
		defer w.Close()
		wdone <- w.ServeGrid(src)
	}()
	if _, err := c.RunGrid(GridSpec{Fingerprint: src.fp, NumCells: src.n, RunsPerCell: 1}); err == nil {
		t.Fatal("poisoned campaign succeeded")
	}
	werr := <-wdone
	if !errors.Is(werr, ErrCell) {
		t.Fatalf("worker error = %v, want ErrCell", werr)
	}
	if n := atomic.LoadInt32(&conns); n != 1 {
		t.Errorf("connections = %d, want 1 (cell failure must not redial)", n)
	}
}
