package vocab

import "math/bits"

// bitset is a fixed-capacity bit vector used for ancestor closures.
type bitset []uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) set(i int) {
	b[i>>6] |= 1 << (uint(i) & 63)
}

func (b bitset) has(i int) bool {
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// or merges other into b; both must have the same capacity.
func (b bitset) or(other bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendMembers appends the indexes of the set bits to dst in increasing
// order, visiting only non-zero words.
func (b bitset) appendMembers(dst []TermID) []TermID {
	for wi, w := range b {
		for w != 0 {
			dst = append(dst, TermID(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
