package rat

import "math/big"

// Sum is an exact running sum of finite rationals. It stays a
// fixed-width Rat, allocation-free, while every partial sum fits
// int64/int64, and moves to a big.Rat at the first overflow, so its value
// is always the exact sum whatever the terms. The zero value is the empty
// sum.
//
// A Sum is a value: Plus returns a new Sum and never changes its
// receiver, so a caller can price a candidate term and then keep or drop
// the result. The big.Rat behind a promoted Sum is never mutated.
type Sum struct {
	r   Rat      // the exact sum while big is nil; the zero Rat reads as 0
	big *big.Rat // the exact sum after the first fixed-width overflow
}

// BigSum wraps an exact big.Rat value as a Sum without copying it. v must
// not change while the Sum is in use.
func BigSum(v *big.Rat) Sum { return Sum{big: v} }

// fixed returns the fixed-width value, mapping the zero value to Zero.
func (s Sum) fixed() Rat {
	if s.r.den == 0 {
		return Zero
	}
	return s.r
}

// Plus returns s + v exactly. v must be finite.
func (s Sum) Plus(v Rat) Sum {
	if s.big == nil {
		if r, ok := s.fixed().AddChecked(v); ok {
			return Sum{r: r}
		}
	}
	return Sum{big: new(big.Rat).Add(s.Big(), v.Big())}
}

// Rat returns the sum and true when it is held in fixed width, and Zero
// and false once it has moved to big.Rat.
func (s Sum) Rat() (Rat, bool) {
	if s.big != nil {
		return Zero, false
	}
	return s.fixed(), true
}

// Big returns the exact sum as a big.Rat, which callers must not mutate
// (a promoted Sum returns its own).
func (s Sum) Big() *big.Rat {
	if s.big != nil {
		return s.big
	}
	return s.fixed().Big()
}

// Cmp compares the exact sum with the finite v: -1, 0 or +1.
func (s Sum) Cmp(v Rat) int {
	if s.big != nil {
		return s.big.Cmp(v.Big())
	}
	return s.fixed().Cmp(v)
}

// Round returns FromBig(s.Big(), up): the sum itself when its reduced
// denominator is at most 2^20, else the sum rounded onto the 2^-20 grid
// in the direction up asks for. Allocation-free while s is fixed-width.
func (s Sum) Round(up bool) Rat {
	if s.big != nil {
		return FromBig(s.big, up)
	}
	return s.fixed().Round(up)
}

// Folder adds finite terms into an exact Sum: in fixed width,
// allocation-free, while every partial sum fits int64/int64, and
// pairwise in big.Rat from the first overflow on. Adding terms one by
// one to a big.Rat grows its denominator with every term and
// renormalizes the whole sum each time, which is quadratic in the term
// count (seconds for a few thousand coprime periods); pairwise addition
// adds operands of similar size, near-linear in the terms' total size.
// The zero value is the empty sum.
type Folder struct {
	sum Sum // the running sum while it is fixed-width (tree is nil)
	// tree is the binary-counter form of pairwise addition: tree[k] is
	// nil or the sum of 2^k consecutive big terms.
	tree []*big.Rat
}

// Add adds the finite v.
func (f *Folder) Add(v Rat) {
	if f.tree == nil {
		if r, ok := f.sum.fixed().AddChecked(v); ok {
			f.sum = Sum{r: r}
			return
		}
	}
	f.AddBig(v.Big())
}

// AddBig adds v, which must not change while f is in use.
func (f *Folder) AddBig(v *big.Rat) {
	if f.tree == nil {
		// The sum leaves fixed width: its prefix is the first big term.
		f.tree = []*big.Rat{f.sum.Big()}
	}
	for k := range f.tree {
		if f.tree[k] == nil {
			f.tree[k] = v
			return
		}
		v = new(big.Rat).Add(f.tree[k], v)
		f.tree[k] = nil
	}
	f.tree = append(f.tree, v)
}

// Sum returns the exact sum of the terms added so far.
func (f *Folder) Sum() Sum {
	if f.tree == nil {
		return f.sum
	}
	var acc *big.Rat
	for _, t := range f.tree {
		switch {
		case t == nil:
		case acc == nil:
			acc = t
		default:
			acc = new(big.Rat).Add(t, acc)
		}
	}
	return BigSum(acc)
}
