// Package lib plants dead declarations next to each construct the
// reach walk must count as reached.
package lib

import (
	"fmt"
	"sort"
)

// Counter is reached through NewCounter's signature.
type Counter struct{ n int }

func NewCounter() *Counter { return &Counter{} }

// Add is called directly.
func (c *Counter) Add(k int) { c.n += k }

// Reset is a dead method of a reached type.
func (c *Counter) Reset() { c.n = 0 }

// String satisfies fmt.Stringer, which fmt dispatches on.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// Write satisfies io.Writer although nothing here converts a Counter
// to one.
func (c *Counter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// byLen's methods satisfy sort.Interface, called only inside sort.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func SortByLen(s []string) { sort.Sort(byLen(s)) }

// Max is reached through an instantiation the caller infers.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Stack's Push is reached through an instantiated receiver; Peek is a
// dead method of a generic type.
type Stack[T any] struct{ xs []T }

func (s *Stack[T]) Push(x T) { s.xs = append(s.xs, x) }

func (s *Stack[T]) Peek() T { return s.xs[len(s.xs)-1] }

func double(x int) int { return 2 * x }

// Apply reaches double only as a function value.
func Apply(xs []int) {
	f := double
	for i := range xs {
		xs[i] = f(xs[i])
	}
}

// Shape is a module interface reached code dispatches on.
type Shape interface{ Area() float64 }

type Square struct{ S float64 }

// Area satisfies Shape.
func (q Square) Area() float64 { return q.S * q.S }

// Perimeter is a dead method of a reached type.
func (q Square) Perimeter() float64 { return 4 * q.S }

func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Dead is a dead function.
func Dead() {}

// Orphan is a dead type, and Touch a method of it.
type Orphan struct{}

func (Orphan) Touch() {}
