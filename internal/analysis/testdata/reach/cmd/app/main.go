package main

import (
	"fmt"

	"reachfix/lib"
)

func main() {
	c := lib.NewCounter()
	c.Add(1)
	s := []string{"bb", "a"}
	lib.SortByLen(s)
	xs := []int{1, 2}
	lib.Apply(xs)
	var st lib.Stack[string]
	st.Push("x")
	fmt.Println(c, s, xs, lib.Max(1.5, 2), lib.Total([]lib.Shape{lib.Square{S: 2}}))
}
