package chunk

import (
	"slices"
	"testing"
)

// TestAppendAndViewAgree: a list grown by Append holds its items in order
// at lengths around the chunk edges, and a view of it — a copy taken before
// further Appends — keeps its length and its items.
func TestAppendAndViewAgree(t *testing.T) {
	for _, n := range []int{0, 1, Len - 1, Len, Len + 1, 2 * Len, 3*Len + 7} {
		flat := make([]int, n)
		var grown List[int]
		for i := range flat {
			flat[i] = 3*i + 1
			grown.Append(flat[i])
		}
		l := grown // the view
		for i := range Len + 3 {
			grown.Append(-i)
		}
		if l.Len() != n || l.Chunks() != (n+Len-1)/Len {
			t.Fatalf("view of %d: Len %d, Chunks %d", n, l.Len(), l.Chunks())
		}
		for i := range n {
			if l.At(i) != flat[i] {
				t.Fatalf("view of %d: item %d is %d, want %d", n, i, l.At(i), flat[i])
			}
		}
		if got := l.AppendTo([]int{-1}); !slices.Equal(got[1:], flat) || got[0] != -1 {
			t.Fatalf("view of %d: AppendTo gives %v", n, got)
		}
		for c := range l.Chunks() {
			if want := min(Len, n-c*Len); len(l.Chunk(c)) != want {
				t.Fatalf("view of %d: chunk %d holds %d items, want %d", n, c, len(l.Chunk(c)), want)
			}
		}
		if grown.Len() != n+Len+3 || grown.At(n) != 0 || grown.At(n+Len+2) != -(Len+2) {
			t.Fatalf("grown past %d: Len %d", n, grown.Len())
		}
	}
}
