package core

// The owner-side walker discipline applies inside internal/core only, so
// its flagged and clean cases live here, at the scoped import path.

type hiWalker struct{}

func (o Options) acquireWalker() *hiWalker  { return &hiWalker{} }
func (o Options) releaseWalker(w *hiWalker) {}

func analyzeOpts(o Options) int { return 0 }

func disciplined(o Options) int {
	w := o.acquireWalker()
	defer o.releaseWalker(w)
	_ = w
	return 0
}

func leaky(o Options) {
	w := o.acquireWalker() // want `must be immediately followed by defer`
	_ = w
}

func nested(o Options) int {
	w := o.acquireWalker()
	defer o.releaseWalker(w)
	_ = w
	return analyzeOpts(o) // want `passed to a nested call while its Scratch walker is borrowed`
}
