package updater

import (
	"math/rand"
	"testing"
)

// TestSrcIndexMatchesSlice: a chunked source index edited by random inserts
// and removes — at 0, at the end, on and beside chunk boundaries — reads as
// a plain slice given the same edits, and an edit never changes the index it
// was derived from, so every generation a reader holds stays intact.
func TestSrcIndexMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, srcChunk - 1, srcChunk, srcChunk + 1, 3*srcChunk + 17} {
		s := newSrcIndex(n)
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
			s.set(i, int32(i))
		}
		type generation struct {
			s   srcIndex
			ref []int32
		}
		var held []generation
		for op := 0; op < 300; op++ {
			held = append(held, generation{s, append([]int32(nil), ref...)})
			pos := rng.Intn(len(ref) + 1)
			switch op % 6 {
			case 0:
				pos = 0
			case 1:
				pos = len(ref)
			case 2:
				pos = min(len(ref), (rng.Intn(4)*srcChunk+rng.Intn(3))&^1)
			}
			if rng.Intn(2) == 0 || pos == len(ref) && len(ref) == 0 {
				x := int32(-op - 1)
				s = s.insert(pos, x)
				ref = append(ref[:pos], append([]int32{x}, ref[pos:]...)...)
			} else {
				pos = min(pos, len(ref)-1)
				s = s.remove(pos)
				ref = append(ref[:pos], ref[pos+1:]...)
			}
			for _, g := range append(held, generation{s, ref}) {
				if g.s.n != len(g.ref) {
					t.Fatalf("n=%d op %d: index of %d entries, slice of %d", n, op, g.s.n, len(g.ref))
				}
				for i, want := range g.ref {
					if got := g.s.at(i); got != want {
						t.Fatalf("n=%d op %d: entry %d = %d, want %d", n, op, i, got, want)
					}
				}
			}
			if len(held) > 4 {
				held = held[1:]
			}
		}
	}
}
