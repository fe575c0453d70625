// Package mac implements the IEEE 802.11 DCF channel-access machinery shared
// by every forwarding scheme: DIFS/EIFS deferral, slotted binary-exponential
// backoff, and the drop-tail interface queue (Table I: 50 packets).
package mac

import (
	"ripple/internal/phys"
	"ripple/internal/sim"
)

// Contender runs the DCF contention procedure for one station. The owning
// scheme forwards carrier transitions to OnBusy/OnIdle, requests a
// transmission opportunity with Request, and is called back via grant when
// it may transmit. A grant comes once the medium has been idle for DIFS (or
// EIFS) and then the backoff has run out, as 802.11 reads it: the deferral
// ends at idleAt + DIFS, when the carrier last went idle plus DIFS, clamped
// to now. So a packet that reaches a station whose medium has already been
// idle for DIFS waits its fresh backoff alone. idleAt starts at 0, so of a
// flow that starts at time 0 only the first packet pays DIFS on an idle
// medium: it finds the medium idle for no time yet. The paper's per-packet
// T_backoff + T_DIFS counts DIFS every time; the light-load delay oracle
// (TestLightLoadDelayMatchesClosedForm) holds this reading instead.
type Contender struct {
	eng   *sim.Engine
	p     phys.Params
	rng   *sim.RNG
	grant Granter

	cw      int // current contention window
	pending bool
	slots   int // remaining backoff slots; -1 when no backoff drawn
	busy    bool
	eifs    bool // apply EIFS instead of DIFS on the next deferral

	deferTimer sim.Timer // the DIFS/EIFS wait
	slotTimer  sim.Timer // the backoff countdown
	// countdownStarted is set when a countdown starts and cleared only when
	// one is stopped — not when it runs out — so OnBusy credits elapsed slots
	// after a countdown that fired as it does during one that is running.
	countdownStarted bool
	slotStart        sim.Time
	idleAt           sim.Time
}

// Granter is whoever a Contender grants the channel to: Grant is invoked
// exactly once per Request.
type Granter interface{ Grant() }

// grantFunc adapts a plain callback.
type grantFunc func()

func (f grantFunc) Grant() { f() }

// NewContender creates a contender on an idle carrier; grant is invoked
// exactly once per Request.
func NewContender(eng *sim.Engine, p phys.Params, rng *sim.RNG, grant func()) *Contender {
	c := &Contender{}
	c.Init(eng, p, rng, grantFunc(grant))
	return c
}

// Init makes c, in place, a new contender on an idle carrier: every field
// zero or as NewContender sets it, except the two timers, which stay bound
// when c was initialised before — at this address, and on this engine, which
// the caller has Reset since.
func (c *Contender) Init(eng *sim.Engine, p phys.Params, rng *sim.RNG, grant Granter) {
	if !c.deferTimer.Bound() {
		c.deferTimer.Bind(eng, c.deferDone)
		c.slotTimer.Bind(eng, c.slotsDone)
	}
	*c = Contender{eng: eng, p: p, rng: rng, grant: grant, cw: p.CWMin, slots: -1,
		deferTimer: c.deferTimer, slotTimer: c.slotTimer}
}

// Request asks for one transmission opportunity. It is idempotent while a
// request is outstanding. The grant callback fires once the channel has
// been idle for DIFS/EIFS, counted from when it last went idle rather than
// from the request (a medium idle that long already defers no further),
// and the drawn backoff has then run out.
func (c *Contender) Request() {
	if c.pending {
		return
	}
	c.pending = true
	if c.slots < 0 {
		c.slots = c.rng.IntN(c.cw + 1)
	}
	if !c.busy {
		c.startDefer()
	}
}

// Cancel withdraws an outstanding request (e.g. the queue drained another
// way). Safe to call at any time.
func (c *Contender) Cancel() {
	c.pending = false
	c.deferTimer.Stop()
	c.stopSlots()
}

// Success resets the contention window after an acknowledged exchange.
func (c *Contender) Success() {
	c.cw = c.p.CWMin
	c.slots = -1
}

// Failure doubles the contention window after a failed exchange, up to
// CWMax, and discards any leftover backoff so the retry draws a fresh one.
func (c *Contender) Failure() {
	c.cw = min(2*(c.cw+1)-1, c.p.CWMax)
	c.slots = -1
}

// NoteCorrupted records that the station just received an undecodable
// frame, so its next deferral must use EIFS instead of DIFS.
func (c *Contender) NoteCorrupted() { c.eifs = true }

// OnBusy must be called on every idle→busy carrier transition.
func (c *Contender) OnBusy() {
	if c.busy {
		return
	}
	c.busy = true
	c.deferTimer.Stop()
	if c.countdownStarted {
		// Freeze the countdown: credit only whole elapsed slots.
		elapsed := int((c.eng.Now() - c.slotStart) / c.p.Slot)
		c.slots -= elapsed
		if c.slots < 0 {
			c.slots = 0
		}
	}
	c.stopSlots()
}

// OnIdle must be called on every busy→idle carrier transition.
func (c *Contender) OnIdle() {
	if !c.busy {
		return
	}
	c.busy = false
	c.idleAt = c.eng.Now()
	if c.pending {
		c.startDefer()
	}
}

func (c *Contender) startDefer() {
	ifs := c.p.DIFS()
	if c.eifs {
		ifs = c.p.EIFS()
	}
	c.deferTimer.ArmAt(c.idleAt + ifs)
}

func (c *Contender) deferDone() {
	c.eifs = false
	if c.slots <= 0 {
		c.doGrant()
		return
	}
	c.slotStart = c.eng.Now()
	c.countdownStarted = true
	c.slotTimer.Arm(sim.Time(c.slots) * c.p.Slot)
}

func (c *Contender) slotsDone() {
	c.slots = 0
	c.doGrant()
}

func (c *Contender) doGrant() {
	c.pending = false
	c.slots = -1
	c.grant.Grant()
}

func (c *Contender) stopSlots() {
	c.slotTimer.Stop()
	c.countdownStarted = false
}
