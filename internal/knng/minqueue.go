package knng

// MinQueue is a binary min-heap of (ID, distance) pairs keyed by
// distance: the frontier structure of the Section 3.3 graph search.
type MinQueue struct {
	ids   []ID
	dists []float32
}

// Len returns the number of queued entries.
func (h *MinQueue) Len() int { return len(h.ids) }

// Reset empties the queue, keeping its storage for reuse across
// traversals.
func (h *MinQueue) Reset() {
	h.ids = h.ids[:0]
	h.dists = h.dists[:0]
}

// Empty reports whether the queue is empty.
func (h *MinQueue) Empty() bool { return len(h.ids) == 0 }

// Push inserts an entry.
func (h *MinQueue) Push(id ID, d float32) {
	h.ids = append(h.ids, id)
	h.dists = append(h.dists, d)
	i := len(h.ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.dists[parent] <= h.dists[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// Pop removes and returns the closest entry. It panics on an empty
// queue; check Empty first.
func (h *MinQueue) Pop() (ID, float32) {
	id, d := h.ids[0], h.dists[0]
	last := len(h.ids) - 1
	h.ids[0], h.dists[0] = h.ids[last], h.dists[last]
	h.ids = h.ids[:last]
	h.dists = h.dists[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.dists[l] < h.dists[smallest] {
			smallest = l
		}
		if r < last && h.dists[r] < h.dists[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return id, d
}

// Top returns the closest entry without removing it.
func (h *MinQueue) Top() (ID, float32) { return h.ids[0], h.dists[0] }

func (h *MinQueue) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.dists[i], h.dists[j] = h.dists[j], h.dists[i]
}
