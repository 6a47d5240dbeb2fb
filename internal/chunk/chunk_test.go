package chunk

import (
	"slices"
	"testing"
)

// TestAppendAndViewAgree: a list grown by Append and a View of the same
// items hold them alike, at lengths around the chunk edges, and a copy taken
// before further Appends keeps its length and its items.
func TestAppendAndViewAgree(t *testing.T) {
	for _, n := range []int{0, 1, Len - 1, Len, Len + 1, 2 * Len, 3*Len + 7} {
		flat := make([]int, n)
		var grown List[int]
		for i := range flat {
			flat[i] = 3*i + 1
			grown.Append(flat[i])
		}
		held := grown
		for i := range Len + 3 {
			grown.Append(-i)
		}
		for name, l := range map[string]List[int]{"grown": held, "view": View(nil, flat), "view into": View(make([][]int, 5), flat)} {
			if l.Len() != n || l.Chunks() != (n+Len-1)/Len {
				t.Fatalf("%s of %d: Len %d, Chunks %d", name, n, l.Len(), l.Chunks())
			}
			for i := range n {
				if l.At(i) != flat[i] {
					t.Fatalf("%s of %d: item %d is %d, want %d", name, n, i, l.At(i), flat[i])
				}
			}
			if got := l.AppendTo([]int{-1}); !slices.Equal(got[1:], flat) || got[0] != -1 {
				t.Fatalf("%s of %d: AppendTo gives %v", name, n, got)
			}
			for c := range l.Chunks() {
				if want := min(Len, n-c*Len); len(l.Chunk(c)) != want {
					t.Fatalf("%s of %d: chunk %d holds %d items, want %d", name, n, c, len(l.Chunk(c)), want)
				}
			}
		}
		if grown.Len() != n+Len+3 || grown.At(n) != 0 || grown.At(n+Len+2) != -(Len+2) {
			t.Fatalf("grown past %d: Len %d", n, grown.Len())
		}
	}
}

// TestViewCopiesNothing: a View's chunks are sub-slices of the flat slice,
// capped at their length.
func TestViewCopiesNothing(t *testing.T) {
	flat := make([]int, 2*Len+5)
	l := View(nil, flat)
	for c := range l.Chunks() {
		ch := l.Chunk(c)
		if &ch[0] != &flat[c*Len] || cap(ch) != len(ch) {
			t.Fatalf("chunk %d is not flat[%d:] capped at its length", c, c*Len)
		}
	}
}
