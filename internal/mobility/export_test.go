package mobility

import "ripple/internal/radio"

// contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) contains(p radio.Pos) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}
