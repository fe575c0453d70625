package pkt

import "ripple/internal/sim"

// Pool is a run's free list of Packets. The hot path of a simulation
// creates one Packet per transport emission and drops it at a terminal
// point (delivered to the endpoint, dropped by a full queue, or abandoned
// at the MAC retry limit); a Pool recycles those structs so a steady-state
// run allocates no new packets at all — and, Reset between the runs of a run
// arena, neither does the run after it.
//
// Packets are shared by reference across layers — a source's in-service
// batch, in-flight frames (including duplicates relayed opportunistically),
// forwarder custody closures and the destination's resequencing buffer can
// all hold the same *Packet at once — so recycling is reference-counted:
// every holder that retains a packet beyond a single callback calls Ref,
// and Release returns the struct to the pool only when the last reference
// drops. Forgetting a Release merely leaks the packet to the garbage
// collector (correct, just not recycled). An unbalanced extra Release is a
// use-after-free bug the counter cannot fully detect — it looks like a
// legitimate last release and recycles the struct early — so the guard in
// Release only catches releases of an already-drained packet; the real
// nets are the determinism tests and the byte-identical single-seed
// experiment outputs, which any early recycle perturbs.
//
// A Pool belongs to one simulation run on one goroutine (like the Engine it
// accompanies); it is not safe for concurrent use. Packets created without
// a pool (plain &Packet{}) ignore Ref/Release entirely, so tests and cold
// paths need no ceremony.
type Pool struct {
	free sim.FreeList[Packet]
	// outstanding counts packets handed out by Get and not yet fully
	// released — the pool-balance invariant the fault-injection tests
	// assert after crashing stations mid-custody.
	outstanding int
	// Always-on conservation counters (see audit.CheckPoolConservation):
	// gets counts allocations, and every final Release classifies its
	// packet as delivered (MarkDelivered was called) or dropped. The
	// identity gets == recDelivered + recDropped + outstanding holds at
	// every instant.
	gets         int
	recDelivered int
	recDropped   int
}

// Get returns a packet with every field zeroed and one reference held by
// the caller. The caller transfers that reference into the MAC send queue
// via Scheme.Send (which releases it when the queue rejects the packet).
func (pl *Pool) Get() *Packet {
	p := pl.free.Get()
	if p == nil {
		p = pl.free.Own(&Packet{})
	}
	p.pool = pl
	p.refs = 1
	pl.outstanding++
	pl.gets++
	return p
}

// Reset empties the pool for the next run of a run arena: every packet it
// ever allocated comes back zeroed, whoever held it when the last run ended
// (queues, resequencers, frames on the air), and the counters restart.
func (pl *Pool) Reset() {
	pl.free.Recall(func(p *Packet) { *p = Packet{} })
	*pl = Pool{free: pl.free}
}

// InUse reports how many packets are currently out of the pool — Get
// calls not yet balanced by a final Release. A quiescent network must
// read 0 here, even after stations crashed while holding custody.
func (pl *Pool) InUse() int { return pl.outstanding }

// Ref notes an additional long-lived holder of the packet: call it when
// retaining a received packet beyond the current callback (queueing it for
// relay, buffering it for resequencing, arming a relay timer over it). A
// no-op for packets not owned by a Pool.
func (p *Packet) Ref() {
	if p.pool != nil {
		p.refs++
	}
}

// Release drops one reference; the last release resets the packet and
// returns it to its pool. A no-op for packets not owned by a Pool.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	if p.refs <= 0 {
		panic("pkt: packet released more often than referenced")
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	// Classify before the reset wipes the flag.
	pl := p.pool
	if p.delivered {
		pl.recDelivered++
	} else {
		pl.recDropped++
	}
	*p = Packet{}
	pl.free.Put(p)
	pl.outstanding--
}

// Counters returns the pool's conservation counters: total allocations,
// and final releases classified as delivered or dropped. At any instant
// gets == delivered + dropped + InUse().
func (pl *Pool) Counters() (gets, delivered, dropped int) {
	return pl.gets, pl.recDelivered, pl.recDropped
}

// FramePool is a run's free list of Frames, under the packet pool's rules:
// a simulation builds one Frame per transmission, and the frame is dead once
// it has left the air at every receiver, so a steady-state run allocates no
// frames. A recycled frame keeps the capacity of its Packets and AckedUIDs
// lists; refilling them with append allocates nothing either.
//
// Get hands the creator one reference, and putting the frame on the air
// spends it: the last AirDone releases the frame. A frame that is never
// transmitted must be released by whoever gives up on it. Code that keeps a
// frame it was merely shown — a received frame, past the reception callback —
// takes its own reference with Hold and drops it with Release.
//
// Like a Pool, a FramePool belongs to one run on one goroutine, and a frame
// built as a literal (&Frame{...}) ignores Hold and Release.
type FramePool struct {
	free sim.FreeList[Frame]
	// gets counts frames handed out, recycled those fully released, and
	// outstanding the difference, kept separately: gets == recycled +
	// outstanding at every instant (audit.CheckFramePool).
	gets        int
	recycled    int
	outstanding int
	quarantine  bool
}

// Quarantine makes the pool never reissue a released frame, so that a holder
// that forgot its Hold finds the frame dead (AssertLive) whenever it looks,
// not only until the next Get. The deep-audit plane turns it on.
func (pl *FramePool) Quarantine() { pl.quarantine = true }

// Get returns a frame with every field zeroed (Packets and AckedUIDs empty,
// with whatever capacity they had) and one reference held by the caller.
func (pl *FramePool) Get() *Frame {
	f := pl.free.Get()
	if f == nil {
		f = &Frame{pool: pl}
		if !pl.quarantine {
			// A quarantined frame is never reissued: owning it would only
			// keep every frame of the run alive until the next Reset.
			pl.free.Own(f)
		}
	}
	f.refs = 1
	pl.outstanding++
	pl.gets++
	return f
}

// InUse reports how many frames are out of the pool.
func (pl *FramePool) InUse() int { return pl.outstanding }

// Counters returns how many frames the pool has handed out and how many
// have been fully released.
func (pl *FramePool) Counters() (gets, recycled int) { return pl.gets, pl.recycled }

// Hold notes an additional holder of the frame. A no-op for a literal frame.
func (f *Frame) Hold() {
	if f.pool == nil {
		return
	}
	f.AssertLive("Hold")
	f.refs++
}

// Release drops one reference; the last one resets the frame and returns it
// to its pool. A no-op for a literal frame.
func (f *Frame) Release() {
	if f.pool == nil {
		return
	}
	f.AssertLive("Release")
	f.refs--
	if f.refs > 0 {
		return
	}
	pl := f.pool
	f.wipe()
	pl.recycled++
	pl.outstanding--
	if !pl.quarantine {
		pl.free.Put(f)
	}
}

// wipe returns the frame to its pooled state: every field zero but its pool
// and the capacity of its two lists.
func (f *Frame) wipe() {
	clear(f.Packets)
	*f = Frame{Packets: f.Packets[:0], AckedUIDs: f.AckedUIDs[:0], pool: f.pool}
}

// Reset empties the pool for the next run of a run arena, as Pool.Reset
// does: every frame it owns comes back wiped, on the air or not, the
// counters restart and quarantine is off until asked for again.
func (pl *FramePool) Reset() {
	pl.free.Recall((*Frame).wipe)
	*pl = FramePool{free: pl.free}
}

// AssertLive panics if the frame has been released to its pool: whoever
// still uses it kept it past a callback without Hold, or released it twice.
// Until the pool reissues the frame the check is certain; under Quarantine
// it stays so.
func (f *Frame) AssertLive(where string) {
	if f.pool != nil && f.refs <= 0 {
		panic("audit: invariant violated: frame liveness\n" +
			"  detail: " + where + " on a frame already released to its pool")
	}
}

// BeginAir marks a frame as in flight with n pending PHY completions (the
// transmitter's own tx-done plus one reception end per scheduled receiver)
// and takes one reference on every aggregated packet for the frame's
// airtime. The radio medium calls it at transmit time so packets stay alive
// for late duplicate receptions even after the source abandons them; each
// completion calls AirDone and the last one releases the hold — and the
// frame itself, whose creator's reference the air has taken over.
func (f *Frame) BeginAir(n int) {
	f.air = int32(n)
	for _, p := range f.Packets {
		p.Ref()
	}
}

// AirDone retires one pending PHY completion of the frame; the last one
// releases the airtime hold on the frame's packets, then the frame.
func (f *Frame) AirDone() {
	if f.air == 0 {
		return
	}
	f.air--
	if f.air > 0 {
		return
	}
	for _, p := range f.Packets {
		p.Release()
	}
	f.Release()
}
