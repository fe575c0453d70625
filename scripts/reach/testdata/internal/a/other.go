//go:build ignore

package a

func Ignored() {}
