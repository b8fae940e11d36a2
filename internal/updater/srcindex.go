package updater

// srcIndex is a View's per-position source index — for each merged position,
// the base index of its rule, or ^j for overlay rule j — cut into fixed-size
// chunks. Reading position i is two loads, the second of them the entry: the
// chunk directory is a few cache lines. An update shifts the entries from the
// changed position on, so the successor copies only the chunks from that
// position's on and shares the ones before it with its predecessor; every
// chunk is a small object the allocator recycles, never a table-sized one.
type srcIndex struct {
	chunks []*[srcChunk]int32
	n      int
}

const (
	srcShift = 10
	srcChunk = 1 << srcShift
	srcMask  = srcChunk - 1
)

// newSrcIndex returns an index of n entries, every chunk fresh and zero.
func newSrcIndex(n int) srcIndex {
	s := srcIndex{chunks: make([]*[srcChunk]int32, (n+srcMask)>>srcShift), n: n}
	for k := range s.chunks {
		s.chunks[k] = new([srcChunk]int32)
	}
	return s
}

// at returns entry i.
func (s *srcIndex) at(i int) int32 { return s.chunks[i>>srcShift][i&srcMask] }

// set writes entry i, which must lie in a chunk this index does not share.
func (s *srcIndex) set(i int, x int32) { s.chunks[i>>srcShift][i&srcMask] = x }

// edited returns an index of n entries that shares s's chunks below the one
// holding position from and has fresh chunks from there on, with the entries
// of its first fresh chunk below from copied in: the caller fills the rest.
func (s *srcIndex) edited(n, from int) srcIndex {
	shared := from >> srcShift
	t := srcIndex{chunks: make([]*[srcChunk]int32, (n+srcMask)>>srcShift), n: n}
	copy(t.chunks, s.chunks[:shared])
	for k := shared; k < len(t.chunks); k++ {
		t.chunks[k] = new([srcChunk]int32)
	}
	if lo := shared << srcShift; lo < from {
		*t.chunks[shared] = *s.chunks[shared]
	}
	return t
}

// fill copies s's entries from a on into t's entries [lo, hi).
func (t *srcIndex) fill(lo, hi int, s *srcIndex, a int) {
	for lo < hi {
		m := min(hi-lo, srcChunk-lo&srcMask, srcChunk-a&srcMask)
		copy(t.chunks[lo>>srcShift][lo&srcMask:][:m], s.chunks[a>>srcShift][a&srcMask:][:m])
		lo, a = lo+m, a+m
	}
}

// insert returns s with x placed at position pos, later entries one further.
func (s *srcIndex) insert(pos int, x int32) srcIndex {
	t := s.edited(s.n+1, pos)
	t.set(pos, x)
	t.fill(pos+1, t.n, s, pos)
	return t
}

// remove returns s without the entry at position i, later entries one nearer.
func (s *srcIndex) remove(i int) srcIndex {
	t := s.edited(s.n-1, i)
	t.fill(i, t.n, s, i+1)
	return t
}
