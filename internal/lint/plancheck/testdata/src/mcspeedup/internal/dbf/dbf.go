// Package dbf is a minimal stub of the real internal/dbf for the
// plancheck testdata: just the compiled-plan surface the analyzer keys
// on. The analyzer skips this package entirely, so no want comments.
package dbf

// Kind selects the curve family.
type Kind int

// Plan is the columnar lowering stub.
type Plan struct {
	n int
}

// CompilePlan lowers a set into a fresh plan.
func CompilePlan(s []int, kind Kind) *Plan { return &Plan{n: len(s)} }

// Compile lowers a set into the receiver.
func (p *Plan) Compile(s []int, kind Kind) { p.n = len(s) }

// Value evaluates the summed curve.
func (p *Plan) Value(delta int64) int64 { return 0 }

// ValueCapped evaluates with an early-exit threshold.
func (p *Plan) ValueCapped(delta, limit int64) (int64, bool) { return 0, true }

// BulkEval evaluates a batch of points.
func (p *Plan) BulkEval(dst, deltas []int64) []int64 { return dst }
