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

	var sizer a.Sizer = a.Box{}
	apply := a.Apply
	fmt.Println((&a.Knobs{}).Tune(), a.Scale(1, 2), a.Scale(3, 2), a.Window(0), a.Once(5),
		a.Box{}.Size(4), a.Box{}.Size(4), sizer.Size(1), a.AppendTo(nil, 1), a.AppendTo(nil, 2),
		apply(1), a.Apply(1), a.Apply(1), a.Sum(1, 5), a.Sum(2, 5))
}
