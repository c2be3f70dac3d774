//go:build go1.23

package engine

import "iter"

// coroutine makes body a coroutine of its caller: resume runs body until
// it yields (true) or returns (false), and stop makes a parked yield
// return false, so body unwinds and its defers run.
func coroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
