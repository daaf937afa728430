package binder

// slabBlock is how many entries one slab block holds.
const slabBlock = 128

// slab is a block allocator: a block amortizes slabBlock small heap
// allocations into one. Blocks never move, so pointers into them stay
// valid. A rewind keeps every block: it zeroes the entries handed out,
// so none still points into the retired trial, and hands them out again
// from the first.
type slab[T any] struct {
	blocks [][]T
	n      int // entries handed out
}

// next returns a zeroed entry.
func (s *slab[T]) next() *T {
	b, i := s.n/slabBlock, s.n%slabBlock
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]T, slabBlock))
	}
	s.n++
	return &s.blocks[b][i]
}

// reset zeroes every entry handed out and rewinds the cursor to the
// first.
func (s *slab[T]) reset() {
	for _, blk := range s.blocks {
		if s.n == 0 {
			break
		}
		k := min(s.n, slabBlock)
		clear(blk[:k])
		s.n -= k
	}
}
