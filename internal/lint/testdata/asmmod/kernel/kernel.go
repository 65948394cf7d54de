// Package kernel plants the allocfree fixture for functions declared
// without a Go body (their code would be assembly): an annotated root that
// calls one body-less kernel asserting its own //fedlint:allocfree, one
// that asserts nothing directly, and one that asserts nothing two calls
// down, next to a foreign callee, which keeps its trusted treatment.
package kernel

import "math"

// Scale is the root. Its calls to addAsm and, through helper, to mulAsm
// must be reported; scaleAsm's and math.Abs's must not.
//
//fedlint:allocfree
func Scale(dst, src []float64, a float64) {
	scaleAsm(dst, src, math.Abs(a))
	addAsm(dst, src)
	helper(dst, src)
}

func helper(dst, src []float64) {
	mulAsm(dst, src)
}

// scaleAsm asserts its claim.
//
//fedlint:allocfree
func scaleAsm(dst, src []float64, a float64)

// addAsm asserts nothing.
func addAsm(dst, src []float64)

// mulAsm asserts nothing either.
func mulAsm(dst, src []float64)

// Unreached asserts nothing and is called by no root: not a finding.
func Unreached(dst []float64)
