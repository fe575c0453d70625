// Package a is the lister's fixture. nm.txt holds lines of go tool nm on
// cmd/tool built with -gcflags=all=-l, in a module named fix.
package a

// T has methods on both receivers, linked and not.
type T struct{ n int }

func (t T) Value() int { return t.n }

func (t *T) Ptr() int { return t.n }

func (t T) DeadValue() int { return -t.n }

func (t *T) DeadPtr() int { return -t.n }

// Ring is a generic type; its methods carry the type arguments in nm.
type Ring[E any] struct{ s []E }

func (r *Ring[E]) Push(e E) { r.s = append(r.s, e) }

func (r *Ring[E]) Drop() { r.s = r.s[:0] }

// Pair has two type parameters.
type Pair[K comparable, V any] struct {
	K K
	V V
}

func (p Pair[K, V]) Key() K { return p.K }

// Sum's instance over []float64 nests brackets in its name.
func Sum[S ~[]E, E int | float64](s S) E {
	var t E
	for _, x := range s {
		t += x
	}
	return t
}

func Unused[E any](e E) E { return e }

func init() {}
