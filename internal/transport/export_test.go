package transport

// Cwnd exposes the current congestion window (packets) for tests.
func (t *TCP) Cwnd() float64 { return t.cwnd }

// SeqUna exposes the first unacknowledged sequence number for tests.
func (t *TCP) SeqUna() int64 { return t.seqUna }
