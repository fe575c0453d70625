package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// LinkPlan is the seed-independent precomputation of a Medium: which
// stations hear which, derived purely from the radio Config and the station
// positions. For a campaign cell that fans the same scenario across many
// seeds it is the dominant per-run setup cost, so NewMediumOn accepts a
// prebuilt plan and shares it by reference across runs.
//
// Storage is CSR-style sparse and delta-encoded: station i's neighbours,
// in ascending ID order, are rows[off[i]:off[i+1]], each stored as the
// uvarint of its gap from the one before it (the first's gap is from 0).
// Neighbours lie close together in ID order — a random layout's rows are
// dense in it, a grid city's are a few runs of adjacent IDs — so nearly
// every gap fits one byte: about one byte per directed link, pruned or
// dense, built or patched. The format is private to this package; other
// packages read a row through EachAscNeighbor or EachAscNeighborID, never
// as a slice. Everything else about a link is recomputed from the positions
// when it is asked for: its distance, its mean power and its propagation
// delay are functions of the two positions alone, so the recomputed values
// are the ones a stored copy would hold, bit for bit. What a transmitter
// reads per frame — its row with the mean power and delay of every link, in
// shadowing-draw order, and the order its receptions fire in — is a view of
// the plan a Medium derives for the stations that transmit (appendRow) and
// keeps in its row cache.
// With Config.PruneSigma == 0 every ordered pair is kept (the "dense" plan:
// O(N²) memory, rows drawn in ID order, preserving the unpruned RNG stream
// bit for bit). With PruneSigma > 0 a uniform spatial grid (posGrid)
// enumerates only candidate pairs within the pruning radius implied by the
// cutoff, so build time and memory are O(N·k) in the average neighbor count
// k — the representation that makes 10k+-station worlds affordable — and a
// transmitter's row is drawn in mean-power order (strongest first, ties by
// ID).
//
// Immutability contract: a LinkPlan is never written after NewLinkPlan
// returns. Every Medium built on it — concurrently, from any number of
// pool workers — only reads it, which is what makes sharing safe; the
// shared-world race test in internal/network hammers one plan from many
// goroutines under -race to keep it that way.
type LinkPlan struct {
	cfg       Config
	positions []Pos
	n         int
	// serial is unique to the plan in the process, assigned when it is
	// built: the name a Medium's row cache files the plan's rows under.
	serial uint64

	// CSR link storage: station i's neighbours, ascending, are encoded in
	// rows[off[i]:off[i+1]] (rows.go); links counts them all.
	off   []int64
	rows  []byte
	links int

	// pruned reports whether neighbor pruning is active; pruneCutoff is
	// the mean-power floor (dBm) below which a pair is pruned, so
	// MeanDBm(a, b) >= pruneCutoff ⇔ b ∈ neighbors(a).
	pruned      bool
	pruneCutoff float64
}

// NewLinkPlan precomputes the neighbor lists for the given radio
// configuration and station positions. It panics on positions
// CheckPositions refuses.
func NewLinkPlan(cfg Config, positions []Pos) *LinkPlan {
	mustHold(positions)
	pl := &LinkPlan{
		cfg:       cfg,
		positions: append([]Pos(nil), positions...),
		n:         len(positions),
		serial:    serials.Add(1),
	}
	pl.pruned = cfg.PruneSigma > 0
	pl.pruneCutoff = cfg.CSThreshDBm - cfg.PruneSigma*cfg.ShadowSigmaDB
	if pl.pruned {
		pl.buildPruned()
	} else {
		pl.buildFull()
	}
	return pl
}

// maxDelayNS is the longest propagation delay a plan stores: its delays
// are int32 nanoseconds, which reach about 644,000 km.
const maxDelayNS = math.MaxInt32

// PositionError is CheckPositions' report: the first station a link plan
// cannot be built with, where it is, and the rule it breaks.
type PositionError struct {
	Station int
	Pos     Pos
	Rule    string
}

func (e *PositionError) Error() string {
	return fmt.Sprintf("station %d at (%v, %v): %s", e.Station, e.Pos.X, e.Pos.Y, e.Rule)
}

// CheckPositions reports the first station a link plan cannot be built
// with, as a *PositionError: one with a coordinate that is NaN or infinite,
// or one that stretches the stations' bounding box so far that the
// propagation delay across its diagonal — the longest any pair of stations
// can have — overflows the plan's int32 nanoseconds.
func CheckPositions(positions []Pos) error {
	var lo, hi Pos
	for i, p := range positions {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return &PositionError{i, p, "a coordinate is not finite"}
		}
		if i == 0 {
			lo, hi = p, p
		}
		lo = Pos{min(lo.X, p.X), min(lo.Y, p.Y)}
		hi = Pos{max(hi.X, p.X), max(hi.Y, p.Y)}
		if span := Dist(lo, hi); span/speedOfLight*1e9 >= maxDelayNS+1 {
			return &PositionError{i, p, fmt.Sprintf("spreads the stations over %.0f km, more than the %.0f km a link plan's delays can span",
				span/1000, maxDelayNS/1e9*speedOfLight/1000)}
		}
	}
	return nil
}

// mustHold panics on positions CheckPositions refuses: the backstop for
// callers that did not check them first.
func mustHold(positions []Pos) {
	if err := CheckPositions(positions); err != nil {
		panic("radio: link plan over bad positions: " + err.Error())
	}
}

// buildFull keeps every ordered pair: row i is every other station.
func (pl *LinkPlan) buildFull() {
	n := pl.n
	pl.off = make([]int64, n+1)
	bound := make([]int32, n)
	for i := range bound {
		bound[i] = int32(n - 1)
	}
	pl.buildRows(bound, func(i int, ids []int32) {
		for j := range n {
			if j != i {
				ids = append(ids, int32(j))
			}
		}
		pl.appendIDs(ids)
	})
}

// pruneRadius is the side of a pruned plan's candidate grid: every kept
// pair lies within it. Mean power is monotone non-increasing in distance,
// so every kept pair lies within rangeFor(pruneCutoff) metres; the 0.1%
// margin absorbs the floating-point slack of that inversion.
func (pl *LinkPlan) pruneRadius() float64 {
	radius := pl.cfg.rangeFor(pl.pruneCutoff) * 1.001
	if radius < 1 {
		// MeanRxPowerDBm clamps d < 1 to 1 m, so sub-metre pairs still
		// need a cell to meet in even when the cutoff exceeds the 1 m
		// power (in which case the predicate keeps nothing).
		radius = 1
	}
	return radius
}

// buildPruned enumerates candidate pairs through the spatial grid and keeps
// those whose mean power clears the pruning cutoff. The exact power
// predicate is applied per candidate, so the kept set is identical to what
// a full N² sweep with the same predicate would keep.
func (pl *LinkPlan) buildPruned() {
	n := pl.n
	pl.off = make([]int64, n+1)
	if n == 0 {
		return
	}
	radius := pl.pruneRadius()
	rsq := radius * radius
	grid := newPosGrid(pl.positions, radius)

	// Pass 1: count each row's in-radius candidates — a tight upper bound on
	// its kept links (the exact predicate can only reject boundary
	// candidates), so the array is sized once, with no dense O(N²)
	// reservation.
	bound := make([]int32, n)
	for i := range bound {
		grid.eachCandidate(i, pl.positions, rsq, func(int32) { bound[i]++ })
	}

	// Pass 2: keep the candidates that clear the cutoff, each row ascending.
	pl.buildRows(bound, func(i int, ids []int32) { pl.appendScratchRow(i, grid, rsq, ids) })
}

// keeps reports whether the power predicate keeps the a→b link.
func (pl *LinkPlan) keeps(a int, b int32) bool {
	return pl.cfg.MeanRxPowerDBm(Dist(pl.positions[a], pl.positions[b])) >= pl.pruneCutoff
}

// appendScratchRow computes station i's row from scratch via the grid,
// into ids, and appends it in ascending order.
func (pl *LinkPlan) appendScratchRow(i int, grid *posGrid, rsq float64, ids []int32) {
	grid.eachCandidate(i, pl.positions, rsq, func(j int32) {
		if pl.keeps(i, j) {
			ids = append(ids, j)
		}
	})
	slices.Sort(ids)
	pl.appendIDs(ids)
}

// link is one link of a transmitter's row: the receiver, the mean received
// power before the shadowing draw and the propagation delay in nanoseconds
// (see CheckPositions).
type link struct {
	id, pd int32
	dbm    float64
}

// rowOrder is the pruned row order: power descending, ties by ID
// ascending. It is strict (an ID occurs once in a row), so the instability
// of the sort never shows.
func rowOrder(a, b link) int {
	if a.dbm != b.dbm {
		if a.dbm > b.dbm {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// byDelay orders links by propagation delay.
func byDelay(a, b link) int { return cmp.Compare(a.pd, b.pd) }

// appendRow appends station i's transmit row to links: every neighbour with
// the mean power and delay of its link, in the order Transmit draws their
// shadowing in — ascending ID unpruned, rowOrder pruned. When the delays do
// not ascend along the row it appends the row's delay order to ord as well:
// the row positions stably sorted by delay, the order in which a
// transmission from i reaches its receivers. Mean power falls with distance
// and delay rises with it, so a pruned row is out of delay order only where
// clamped or rounded powers tie; an unpruned row is in ID order and nearly
// always is. The row is a pure function of the plan and i: the distance of
// each link is the one EachAscNeighbor yields, and Dist is symmetric bit
// for bit, so a row draws each shadowing sample with the same mean in the
// same place whichever plan, of two over the same positions, it comes from.
func (pl *LinkPlan) appendRow(links []link, ord []int32, i int) ([]link, []int32) {
	lo, pi, ids := len(links), pl.positions[i], pl.row(i)
	for k, j := 0, int32(0); k < len(ids); {
		k, j = nextID(ids, k, j)
		d := Dist(pi, pl.positions[j])
		links = append(links, link{id: j, pd: int32(propDelay(d)), dbm: pl.cfg.MeanRxPowerDBm(d)})
	}
	row := links[lo:]
	if pl.pruned {
		slices.SortFunc(row, rowOrder)
	}
	if slices.IsSortedFunc(row, byDelay) {
		return links, ord
	}
	olo := len(ord)
	for k := range row {
		ord = append(ord, int32(k))
	}
	slices.SortStableFunc(ord[olo:], func(a, b int32) int { return byDelay(row[a], row[b]) })
	return links, ord
}

// Stations returns the number of stations the plan covers.
func (pl *LinkPlan) Stations() int { return pl.n }

// Pruned reports whether neighbor pruning is active (PruneSigma > 0), i.e.
// whether the plan stores only in-range links.
func (pl *LinkPlan) Pruned() bool { return pl.pruned }

// Links returns the number of directed links the plan stores — n·(n−1)
// unpruned, the in-range link count with pruning on.
func (pl *LinkPlan) Links() int { return pl.links }

// EachAscNeighbor calls yield for every stored neighbor of station i in
// ascending ID order, with the link distance. The routing layer iterates it
// to build its sparse link table over exactly the pairs the plan kept.
func (pl *LinkPlan) EachAscNeighbor(i int, yield func(id int32, dist float64)) {
	pi, row := pl.positions[i], pl.row(i)
	for k, j := 0, int32(0); k < len(row); {
		k, j = nextID(row, k, j)
		yield(j, Dist(pi, pl.positions[j]))
	}
}

// EachAscNeighborID calls yield for every stored neighbor of station i in
// ascending ID order: EachAscNeighbor for callers that need no distance.
func (pl *LinkPlan) EachAscNeighborID(i int, yield func(id int32)) {
	row := pl.row(i)
	for k, j := 0, int32(0); k < len(row); {
		k, j = nextID(row, k, j)
		yield(j)
	}
}

// Distance returns the distance in metres between two stations, stored
// link or not. It is symmetric bit for bit: Dist's differences only change
// sign when a and b swap, and math.Hypot ignores the sign.
func (pl *LinkPlan) Distance(a, b int) float64 {
	return Dist(pl.positions[a], pl.positions[b])
}

// MeanDBm returns the mean received power of the a→b link in dBm (0 when
// a == b, matching the dense matrix diagonal), stored link or not; a stored
// link's power is this value.
func (pl *LinkPlan) MeanDBm(a, b int) float64 {
	if a == b {
		return 0
	}
	return pl.cfg.MeanRxPowerDBm(pl.Distance(a, b))
}
