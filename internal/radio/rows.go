package radio

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// serials numbers link plans as they are built, from 1: a plan's serial is
// the name a Medium's row cache knows it by. Plans are built on many
// goroutines at once — an epoch pipeline, pool workers — so the counter is
// atomic: it is the one variable that builds share.
var serials atomic.Uint64

// A plan row is its neighbour IDs in ascending order, each stored as the
// uvarint (encoding/binary) of its gap from the one before it; the first
// ID's gap is from 0. Rows are independent of each other: an unchanged row
// is copied byte for byte into a rebuilt plan.

// buildRows fills a plan's rows 0..n-1 in order, calling row(i) to append
// row i (through appendIDs, appendScratchRow or a splice of an encoded row),
// and sets each row's off entry after it. bound[i] is an upper bound on row
// i's links. The bounds size the rows once (rowBytes), so no row's append
// reallocates them; the rows kept are then copied into an array exactly as
// long as they are. A row longer than its bound is a builder's miscount,
// and panics.
func (pl *LinkPlan) buildRows(bound []int32, row func(i int)) {
	total := 0
	for _, b := range bound {
		total += rowBytes(int(b), pl.n)
	}
	pl.rows = make([]byte, 0, total)
	for i, b := range bound {
		links := pl.links
		row(i)
		if k := pl.links - links; k > int(b) {
			panic(fmt.Sprintf("radio: link plan row %d holds %d links, over its bound of %d", i, k, b))
		}
		pl.off[i+1] = int64(len(pl.rows))
	}
	pl.rows = append(make([]byte, 0, len(pl.rows)), pl.rows...)
}

// rowBytes is an upper bound on the bytes of a row of k IDs below n: a
// byte per gap, and one more for each gap of at least 128^m, m ≥ 1, of
// which there are at most (n−1)/128^m, as the gaps sum to the last ID.
func rowBytes(k, n int) int {
	b := k
	for x := (n - 1) >> 7; x > 0; x >>= 7 {
		b += min(k, x)
	}
	return b
}

// appendIDs appends a row of neighbour IDs, ascending, to the plan's rows.
func (pl *LinkPlan) appendIDs(ids []int32) {
	rows, prev := pl.rows, int32(0)
	for _, id := range ids {
		rows = binary.AppendUvarint(rows, uint64(id-prev))
		prev = id
	}
	pl.rows = rows
	pl.links += len(ids)
}

// rowLinks counts the IDs of an encoded row without decoding it: the bytes
// that end a uvarint, the ones below 0x80, eight at a time.
func rowLinks(row []byte) int {
	n := 0
	for ; len(row) >= 8; row = row[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(row) & 0x8080808080808080)
	}
	for _, c := range row {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// row returns station i's encoded row.
func (pl *LinkPlan) row(i int) []byte { return pl.rows[pl.off[i]:pl.off[i+1]] }

// nextID decodes the gap at row[k] onto id, the row's ID before it (0
// before the first), and returns the offset of the gap after it and the
// ID it decodes to: binary.Uvarint's decoding, written out so that it
// inlines into the loops that read rows. A row is read as
//
//	for k, id := 0, int32(0); k < len(row); {
//		k, id = nextID(row, k, id)
//		…
//	}
func nextID(row []byte, k int, id int32) (int, int32) {
	c := row[k]
	k++
	if c < 0x80 {
		return k, id + int32(c)
	}
	gap := uint32(c & 0x7f)
	for shift := 7; c >= 0x80; shift += 7 {
		c = row[k]
		k++
		gap |= uint32(c&0x7f) << shift
	}
	return k, id + int32(gap)
}
