package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"testing"
)

// BenchmarkCoordinatorDelivery is the coordinator's layer benchmark: what
// it costs to take a delivered cell — frame decode, lease bookkeeping,
// journal write and fsync, the next lease — with the simulation taken out.
// In-process workers over net.Pipe deliver a fixed 3 kB payload (a suite
// cell's size) under one-cell leases, as the suite's small grids do, to a
// coordinator journalling and checkpointing under b.TempDir(). One op is
// one cell. These workers deliver as fast as leases come back, and a lease
// does not wait for the disk, so cells queue while an fsync is in flight and
// the committer journals them as one batch even at one worker: cells/s is
// what the coordinator sustains when the disk is the bottleneck, far above
// one cell per fsync. A number from here is a property of the filesystem
// under the temp directory.
func BenchmarkCoordinatorDelivery(b *testing.B) {
	payload, err := json.Marshal(string(bytes.Repeat([]byte{'x'}, 3<<10)))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ck, wal, err := OpenPersistence(filepath.Join(b.TempDir(), "ckpt.json"), false)
			if err != nil {
				b.Fatal(err)
			}
			c := NewCoordinator(Options{Checkpoint: ck, WAL: wal})
			const fp = "bench"
			done := make(chan error, workers)
			for i := 0; i < workers; i++ {
				cli, srv := net.Pipe()
				go c.Serve(NewConn(srv))
				go func() {
					defer cli.Close()
					conn := NewConn(cli)
					err := conn.Send(&Message{Type: MsgHello, Proto: ProtoVersion})
					for err == nil {
						if err = conn.Send(&Message{Type: MsgReady, Grid: fp}); err != nil {
							break
						}
						var m *Message
						if m, err = conn.Recv(); err != nil || m.Type != MsgLease {
							break
						}
						for _, cell := range m.Cells {
							if err = conn.Send(&Message{Type: MsgCell, Grid: fp, Lease: m.Lease,
								Cell: cell, Payload: payload}); err != nil {
								break
							}
						}
					}
					done <- err
				}()
			}
			b.ResetTimer()
			if _, err := c.RunGrid(GridSpec{Fingerprint: fp, NumCells: b.N, RunsPerCell: 1}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			for i := 0; i < workers; i++ {
				if err := <-done; err != nil {
					b.Error(err)
				}
			}
			c.Close()
			if err := wal.Close(); err != nil {
				b.Error(err)
			}
		})
	}
}
