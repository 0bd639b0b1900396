// Package bitvec provides the packed bit-vector shared by the columnar
// predicate corpus (occurrence bitmaps over execution rows), the AC-DAG
// (precedence-matrix rows), and causal-path discovery (alive/exclude
// sets). One implementation keeps the word-parallel set algebra of the
// three layers identical, so a set handed across a layer boundary never
// needs re-encoding.
//
// A Vec is a plain []uint64 — callers that need fused word loops (the
// AC-DAG's branch exclusivity, the corpus's conjunction test) index the
// words directly. Vectors of different lengths compose: every binary
// operation treats the shorter operand as zero-extended, which is what
// a growable corpus column is.
package bitvec

import "math/bits"

// Vec is a set of small non-negative integers packed 64 per word.
type Vec []uint64

// New returns an empty vector with capacity for n elements.
func New(n int) Vec { return make(Vec, (n+63)/64) }

// Ones returns a vector with elements [0, n) set.
func Ones(n int) Vec {
	v := New(n)
	for i := 0; i < n/64; i++ {
		v[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		v[n>>6] = (1 << uint(rem)) - 1
	}
	return v
}

// Set adds i, growing the vector as needed.
func (v *Vec) Set(i int) {
	w := i >> 6
	for w >= len(*v) {
		*v = append(*v, 0)
	}
	(*v)[w] |= 1 << (uint(i) & 63)
}

// SetInCap adds i without growing; i must be within capacity.
func (v Vec) SetInCap(i int) { v[i>>6] |= 1 << (uint(i) & 63) }

// Unset removes i (a no-op beyond the vector's length).
func (v Vec) Unset(i int) {
	if w := i >> 6; w < len(v) {
		v[w] &^= 1 << (uint(i) & 63)
	}
}

// Has reports whether i is set; indices beyond the length are absent.
func (v Vec) Has(i int) bool {
	w := i >> 6
	return w < len(v) && v[w]&(1<<(uint(i)&63)) != 0
}

// Clone returns an independent copy.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// OrWith unions o into v; o must not be longer than v.
func (v Vec) OrWith(o Vec) {
	for w := range o {
		v[w] |= o[w]
	}
}

// Count returns the number of set elements.
func (v Vec) Count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountAnd returns |v ∩ o| without materializing the intersection.
func (v Vec) CountAnd(o Vec) int {
	n := len(v)
	if len(o) < n {
		n = len(o)
	}
	c := 0
	for w := 0; w < n; w++ {
		c += bits.OnesCount64(v[w] & o[w])
	}
	return c
}

// Rank returns the number of set elements strictly below i.
func (v Vec) Rank(i int) int {
	w := i >> 6
	if w > len(v) {
		w = len(v)
	}
	n := 0
	for k := 0; k < w; k++ {
		n += bits.OnesCount64(v[k])
	}
	if w < len(v) {
		if rem := uint(i) & 63; rem != 0 {
			n += bits.OnesCount64(v[w] & ((1 << rem) - 1))
		}
	}
	return n
}

// ForEach calls fn for every set element in ascending order.
func (v Vec) ForEach(fn func(i int)) {
	for w, word := range v {
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// ForEachAnd calls fn for every element of v ∩ o in ascending order.
func (v Vec) ForEachAnd(o Vec, fn func(i int)) {
	n := len(v)
	if len(o) < n {
		n = len(o)
	}
	for w := 0; w < n; w++ {
		word := v[w] & o[w]
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Intersects reports whether v ∩ o is non-empty.
func (v Vec) Intersects(o Vec) bool {
	n := len(v)
	if len(o) < n {
		n = len(o)
	}
	for w := 0; w < n; w++ {
		if v[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// IntersectsExcept reports whether v ∩ o contains any element other
// than i and j — the word-parallel transitive-reduction witness test.
func (v Vec) IntersectsExcept(o Vec, i, j int) bool {
	n := len(v)
	if len(o) < n {
		n = len(o)
	}
	for w := 0; w < n; w++ {
		word := v[w] & o[w]
		if w == i>>6 {
			word &^= 1 << (uint(i) & 63)
		}
		if w == j>>6 {
			word &^= 1 << (uint(j) & 63)
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// AndNotCount returns |v \ o| — the number of elements of v not in o —
// without materializing the difference. o is zero-extended.
func (v Vec) AndNotCount(o Vec) int {
	c := 0
	for w, word := range v {
		if w < len(o) {
			word &^= o[w]
		}
		c += bits.OnesCount64(word)
	}
	return c
}

// IntersectInto writes v ∩ o into dst and returns it, reusing dst's
// backing when it has capacity — the scratch-friendly form of an
// intersection for per-round kernel loops. Both operands are
// zero-extended to v's length.
func (v Vec) IntersectInto(o Vec, dst Vec) Vec {
	if cap(dst) < len(v) {
		dst = make(Vec, len(v))
	}
	dst = dst[:len(v)]
	for w := range v {
		if w < len(o) {
			dst[w] = v[w] & o[w]
		} else {
			dst[w] = 0
		}
	}
	return dst
}

// AndNotInto writes v \ o into dst and returns it, reusing dst's
// backing when it has capacity. o is zero-extended to v's length.
func (v Vec) AndNotInto(o Vec, dst Vec) Vec {
	if cap(dst) < len(v) {
		dst = make(Vec, len(v))
	}
	dst = dst[:len(v)]
	for w := range v {
		if w < len(o) {
			dst[w] = v[w] &^ o[w]
		} else {
			dst[w] = v[w]
		}
	}
	return dst
}

// IterateWords calls fn(w, word) for every non-zero word of v, giving
// fused kernels direct access to the packed representation without
// per-bit callbacks; fn receives the word index, so bit i of word w is
// element w<<6 + i.
func (v Vec) IterateWords(fn func(w int, word uint64)) {
	for w, word := range v {
		if word != 0 {
			fn(w, word)
		}
	}
}

// ClearFrom removes every element >= n, truncating a reused vector
// back to a prefix without reallocating — the epoch-reset primitive
// for overlay bitmaps that grow past a sealed baseline and rewind.
func (v Vec) ClearFrom(n int) {
	w := n >> 6
	if w >= len(v) {
		return
	}
	if rem := uint(n) & 63; rem != 0 {
		v[w] &= (1 << rem) - 1
		w++
	}
	for ; w < len(v); w++ {
		v[w] = 0
	}
}

// AndEquals reports whether (a ∩ b) == want, all three zero-extended to
// a common length — the corpus's word-parallel conjunction-equality
// test ("A∧B holds exactly in the failed rows").
func AndEquals(a, b, want Vec) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if len(want) > n {
		n = len(want)
	}
	at := func(v Vec, w int) uint64 {
		if w < len(v) {
			return v[w]
		}
		return 0
	}
	for w := 0; w < n; w++ {
		if at(a, w)&at(b, w) != at(want, w) {
			return false
		}
	}
	return true
}

// Transpose flips an n×n row matrix: out[j] has i iff rows[i] has j.
func Transpose(rows []Vec, n int) []Vec {
	out := make([]Vec, n)
	for j := range out {
		out[j] = New(n)
	}
	for i := 0; i < n; i++ {
		rows[i].ForEach(func(j int) { out[j].SetInCap(i) })
	}
	return out
}
