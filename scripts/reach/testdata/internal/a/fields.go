package a

// counts is the field pass's fixture. Init functions are left out of the
// listing, so only init uses its fields.
type counts struct {
	written int // assigned, op-assigned and set by a key, never read
	bumped  int // incremented, never read
	tested  int // read by a _test.go file only
	kept    int // read
	Public  int // exported: out of scope
	inner   struct {
		deep int // read through a nested struct
	}
}

// key is used whole as a map key, which reads its fields where the pass
// cannot see it.
type key struct{ grid, cell int }

// stale is read, yet the allow-list names it.
type stale struct{ n int }

var sink = map[key]int{}

func init() {
	c := counts{written: 1}
	c.written = 2
	c.written += 3
	c.bumped++
	c.tested = 4
	c.Public = 5
	c.inner.deep = 6
	sink[key{1, 2}] = c.kept + c.inner.deep + stale{}.n
}
