// Package srv stands in for any layer above internal/core (server,
// experiments, cmd): the columnar plan API is out of bounds here.
package srv

import "mcspeedup/internal/dbf"

// plan at package scope is fine: declaring the zero value is not a
// composite literal and calls are what leak plans.
var plan dbf.Plan

// leak compiles and probes a plan outside the analysis layer.
func leak(s []int) int64 {
	p := dbf.CompilePlan(s, 0) // want `the columnar demand-plan API \(CompilePlan\) is confined to internal/core`
	return p.Value(3)          // want `the columnar demand-plan API \(Value\) is confined to internal/core`
}

// leakVar recompiles the package-scope plan outside the analysis layer.
func leakVar(s []int) {
	plan.Compile(s, 0) // want `the columnar demand-plan API \(Compile\) is confined to internal/core`
}

// leakLiteral hand-builds a plan.
func leakLiteral() *dbf.Plan {
	return &dbf.Plan{} // want `dbf.Plan composite literal`
}
