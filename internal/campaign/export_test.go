package campaign

import "fmt"

// Label returns the point's label along the named axis.
func (p Point) Label(axis string) string {
	for i, a := range p.axes {
		if a.Name == axis {
			return a.Labels[p.idx[i]]
		}
	}
	panic(fmt.Sprintf("campaign: grid has no axis %q", axis))
}
