package storage

import "unsafe"

// BlockScratch is the bytes of a's block buffers: the tuple numbers, keys
// and miss positions of one block, and a block of each column Fold reads.
func (a *Arena) BlockScratch() int {
	return int(unsafe.Sizeof(a.l)+unsafe.Sizeof(a.r)+unsafe.Sizeof(a.ints)+unsafe.Sizeof(a.miss)) +
		int(unsafe.Sizeof(a.vals[0]))*cap(a.vals)
}
