// Command run calls everything in package a but Other.Gen.
package main

import (
	"fmt"

	"callers/internal/a"
)

func main() {
	var s a.Set[int]
	s.Add(1)
	xs := []string{"ccc", "a", "bb"}
	a.SortByLen(xs)
	b, err := a.Encode()
	fmt.Println(a.Used{}.Gen(), a.Other{}, s, xs, a.NewFields().Sum(), string(b), err)
}
