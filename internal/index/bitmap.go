// Package index is the platform's inverted targeting index: for every
// targeting attribute (and demographic value, liked page, audience) it keeps
// a dense bitmap over a shard's users, so that reach estimates and boolean
// targeting expressions evaluate as word-wide bitmap intersections and
// popcounts instead of per-profile linear scans.
//
// The design follows the bit-parallel evaluation the paper's bit-split
// scheme (internal/core/bitsplit.go) already exploits logically: a user
// population is a bit vector, an attribute is the subset of set bits, and a
// boolean targeting expression is a circuit over those vectors. At a
// million users per shard a posting list is 125 KB of uint64 words, an AND
// costs ~16k word ops, and a full reach query stays comfortably under a
// millisecond — the substrate the transparency experiments need to issue
// reach queries by the thousands.
//
// Layout:
//
//   - bitmap.go: the dense uint64-word bitmap.
//   - index.go:  the Index — the population, posting lists, incremental
//     maintenance hooks.
//   - node.go:   compiled query plans (word-streamed, allocation-free
//     evaluation) for attr.Expr and audience combinators, and VerifyExpr,
//     the self-check of the posting lists against the profile store.
//
// The index keeps nothing per user beyond its bits: the only copy of a
// user's attributes on a shard is the profile.Store's.
package index

import "math/bits"

// wordBits is the bitmap word width.
const wordBits = 64

// Bitmap is a dense bitmap over user ordinals, stored as little-endian uint64
// words. The zero value is an empty bitmap. Words beyond len(words) are
// implicitly zero, so a bitmap only occupies memory up to its highest set
// bit — a posting list for a rare attribute stays small even in a huge
// population.
//
// Bitmap has no lock of its own: every mutation goes through the owning
// Index, which serializes writers against in-flight queries.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns an empty bitmap with capacity hinted for n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// set sets bit i, growing the word slice as needed.
func (b *Bitmap) set(i uint32) {
	w := int(i / wordBits)
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (i % wordBits)
}

// clear clears bit i. Clearing beyond the current length is a no-op.
func (b *Bitmap) clear(i uint32) {
	w := int(i / wordBits)
	if w < len(b.words) {
		b.words[w] &^= 1 << (i % wordBits)
	}
}

// test reports bit i.
func (b *Bitmap) test(i uint32) bool {
	w := int(i / wordBits)
	return w < len(b.words) && b.words[w]&(1<<(i%wordBits)) != 0
}

// word returns word w, treating the tail beyond the slice as zero.
func (b *Bitmap) word(w int) uint64 {
	if b == nil || w >= len(b.words) {
		return 0
	}
	return b.words[w]
}

// count returns the number of set bits.
func (b *Bitmap) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// memBytes returns the heap footprint of the word storage.
func (b *Bitmap) memBytes() int { return cap(b.words) * 8 }
