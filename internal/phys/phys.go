// Package phys holds the IEEE 802.11 physical-layer constants and airtime
// arithmetic used throughout the simulator. Defaults reproduce Table I of
// the RIPPLE paper (ICDCS 2010). It also holds the multi-rate extension
// (rates.go): the rate ladders the airtime scales with, the decode-threshold
// shift a faster rate costs, and the oracle that picks a link's rate.
package phys

import "ripple/internal/sim"

// Sizes in bytes used by the MAC framing model.
const (
	// MACHeaderBytes is the 802.11 data-frame MAC header (addresses,
	// frame control, sequence control, FCS).
	MACHeaderBytes = 34
	// ACKFrameBytes is the 802.11 ACK control frame.
	ACKFrameBytes = 14
	// RTSFrameBytes is the 802.11 RTS control frame.
	RTSFrameBytes = 20
	// CTSFrameBytes is the 802.11 CTS control frame.
	CTSFrameBytes = 14
	// PerPacketCRCBytes is the extra per-sub-packet header+CRC added when
	// several upper-layer packets are aggregated into one frame (AFR-style
	// fragment header: sequence, length, CRC32).
	PerPacketCRCBytes = 8
	// ForwarderEntryBytes is the cost per entry of the forwarder list
	// carried between the MAC header and the frame body by opportunistic
	// schemes (station address shortened to 6 bytes).
	ForwarderEntryBytes = 6
	// BitmapACKBytes is the extra payload in a MAC ACK carrying the
	// per-packet reception bitmap used by AFR and RIPPLE.
	BitmapACKBytes = 8
)

// Params collects the tunable PHY/MAC timing constants. The zero value is
// NOT usable; call Default (216 Mbps data / 54 Mbps basic, Table I) or
// LowRate (6 Mbps both, used for Table III and Figs. 10/12) instead.
type Params struct {
	SIFS     sim.Time // short inter-frame space
	Slot     sim.Time // idle slot duration
	PHYHdr   sim.Time // PLCP preamble+header airtime, rate-independent
	CWMin    int      // minimum contention window (slots-1), 802.11 OFDM: 15
	CWMax    int      // maximum contention window, 802.11: 1023
	DataBps  float64  // PHY data rate for frame bodies, bits per second
	BasicBps float64  // PHY basic rate for control frames (ACKs)

	// RetryLimit is the MAC retry limit per frame (802.11 short retry).
	RetryLimit int
	// QueueLimit is the interface queue capacity in packets (Table I: 50).
	QueueLimit int
	// PacketBytes is the upper-layer packet size used by the paper (1000).
	PacketBytes int
}

// Default returns Table I parameters: 216 Mbps data rate, 54 Mbps basic
// rate, SIFS 16 µs, slot 9 µs, PHY header 20 µs, interface queue 50.
func Default() Params {
	return Params{
		SIFS:        16 * sim.Microsecond,
		Slot:        9 * sim.Microsecond,
		PHYHdr:      20 * sim.Microsecond,
		CWMin:       15,
		CWMax:       1023,
		DataBps:     216e6,
		BasicBps:    54e6,
		RetryLimit:  7,
		QueueLimit:  50,
		PacketBytes: 1000,
	}
}

// LowRate returns the 6 Mbps configuration used for the VoIP experiments
// (Table III) and the low-rate halves of Figs. 10 and 12: "The physical
// layer data and basic rates used are both 6Mbps".
func LowRate() Params {
	p := Default()
	p.DataBps = 6e6
	p.BasicBps = 6e6
	return p
}

// DIFS is SIFS + 2 slots (802.11 DCF inter-frame space).
func (p Params) DIFS() sim.Time { return p.SIFS + 2*p.Slot }

// EIFS is the extended inter-frame space applied after receiving a corrupted
// frame: SIFS + ACK airtime at basic rate + DIFS.
func (p Params) EIFS() sim.Time { return p.SIFS + p.ACKTime() + p.DIFS() }

// airtime returns the duration of `bytes` payload at `bps`, rounded up to
// whole nanoseconds.
func airtime(bytes int, bps float64) sim.Time {
	ns := float64(bytes*8) / bps * 1e9
	t := sim.Time(ns)
	if float64(t) < ns {
		t++
	}
	return t
}

// DataTime returns the airtime of a data frame carrying the given MAC
// payload (header + body) bytes, including the PLCP header.
func (p Params) DataTime(payloadBytes int) sim.Time {
	return p.PHYHdr + airtime(payloadBytes, p.DataBps)
}

// DataTimeAt is DataTime at an explicit PHY rate (multi-rate extension);
// rate 0 falls back to the configured data rate.
func (p Params) DataTimeAt(payloadBytes int, rateBps float64) sim.Time {
	if rateBps <= 0 {
		rateBps = p.DataBps
	}
	return p.PHYHdr + airtime(payloadBytes, rateBps)
}

// ACKTime returns the airtime of a plain 802.11 ACK at the basic rate,
// including the PLCP header.
func (p Params) ACKTime() sim.Time {
	return p.PHYHdr + airtime(ACKFrameBytes, p.BasicBps)
}

// BitmapACKTime returns the airtime of an ACK carrying a reception bitmap
// (AFR / RIPPLE), still sent at the basic rate.
func (p Params) BitmapACKTime() sim.Time {
	return p.PHYHdr + airtime(ACKFrameBytes+BitmapACKBytes, p.BasicBps)
}

// RTSTime returns the airtime of an RTS control frame at the basic rate.
func (p Params) RTSTime() sim.Time {
	return p.PHYHdr + airtime(RTSFrameBytes, p.BasicBps)
}

// CTSTime returns the airtime of a CTS control frame at the basic rate.
func (p Params) CTSTime() sim.Time {
	return p.PHYHdr + airtime(CTSFrameBytes, p.BasicBps)
}
