// Command tool links part of package a.
package main

import (
	"fmt"

	"fix/internal/a"
)

func main() {
	t := &a.T{}
	var r a.Ring[string]
	r.Push("x")
	fmt.Println(t.Value(), t.Ptr(), a.Sum([]float64{1, 2}), a.Pair[string, int]{K: "k"}.Key(), used())
}

func used() int { return 1 }

func unused() int { return 2 }
