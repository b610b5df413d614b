// Package a holds the cases the callers fence must tell apart.
package a

import "sort"

// Used's Gen is called from cmd.
type Used struct{}

// Gen returns a generation.
func (Used) Gen() int { return 1 }

// Other's Gen shares Used.Gen's name, but only a test calls it: a scan
// by name would count Used.Gen's call for it.
type Other struct{}

// Gen returns a generation.
func (Other) Gen() int { return 2 }

// Set is generic: a call through Set[int] uses the origin method.
type Set[T comparable] struct{ items []T }

// Add appends x.
func (s *Set[T]) Add(x T) { s.items = append(s.items, x) }

// byLen's methods are called by package sort, through sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// SortByLen sorts xs by length.
func SortByLen(xs []string) { sort.Sort(byLen(xs)) }
