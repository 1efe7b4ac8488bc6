package assignment

import (
	"mpq/internal/core"
	"mpq/internal/cost"
)

// Exports for the external test package: the reference search is built
// from the same DP seed and uniform assignments, and the plangen cells use
// the same random systems.
var (
	UniformAssignments = uniformAssignments
	RandomSystem       = randomSystem
)

// ChooseAssignment is the DP seed: the DP minimizing economic cost.
func ChooseAssignment(sys *core.System, an *core.Analysis, m *cost.Model) core.Assignment {
	return chooseAssignmentBy(sys, an, m, false)
}

// SetPricedHook installs f as the pricer's extension hook and returns a
// function restoring the previous one.
func SetPricedHook(f func(core.Assignment)) (restore func()) {
	prev := pricedHook
	pricedHook = f
	return func() { pricedHook = prev }
}
