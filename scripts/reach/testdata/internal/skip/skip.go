// Package skip is left out of the listing by name.
package skip

func Skipped() {}
