package knng

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"dnnd/internal/wire"
)

// TombSet is a concurrent tombstone bitset over the ID range [0, n):
// one bit per vertex, set when the vertex has been deleted. It is the
// MVCC companion of Graph — a published snapshot's graph and dataset
// are immutable, but its TombSet keeps accepting Kill calls, which is
// how a delete becomes visible to in-flight queries immediately,
// without waiting for the next refinement to publish a new snapshot.
//
// Reads (Dead) are single atomic word loads, cheap enough for the
// traversal hot loop; writes (Kill) are CAS loops. The set never
// shrinks and IDs are never recycled until compaction rewrites the
// store, so a bit, once set, stays set for the snapshot's lifetime.
// The zero value and the nil pointer both behave as "nothing dead",
// so frozen-index callers pay one nil check and no allocation.
type TombSet struct {
	bits []uint64
	n    int
	dead atomic.Int64
}

// NewTombSet returns an empty tombstone set over n vertices.
func NewTombSet(n int) *TombSet {
	if n < 0 {
		n = 0
	}
	return &TombSet{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the ID range the set covers.
func (t *TombSet) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dead reports whether id is tombstoned. Nil sets and out-of-range IDs
// report false, so callers can pass a frozen index's nil set and a
// delta ID beyond an older snapshot's range without guarding.
func (t *TombSet) Dead(id ID) bool {
	if t == nil || int(id) >= t.n {
		return false
	}
	w := atomic.LoadUint64(&t.bits[id>>6])
	return w&(1<<(id&63)) != 0
}

// Kill tombstones id and reports whether this call was the one that
// killed it (false when already dead). Out-of-range IDs are a no-op
// returning false. Safe for concurrent use with Dead and other Kills.
func (t *TombSet) Kill(id ID) bool {
	if t == nil || int(id) >= t.n {
		return false
	}
	word := &t.bits[id>>6]
	mask := uint64(1) << (id & 63)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			t.dead.Add(1)
			return true
		}
	}
}

// Count returns the number of tombstoned IDs.
func (t *TombSet) Count() int {
	if t == nil {
		return 0
	}
	return int(t.dead.Load())
}

// Alive returns Len minus Count — the population a refinement builds
// over.
func (t *TombSet) Alive() int { return t.Len() - t.Count() }

// CloneGrow returns a new set over n >= Len() vertices carrying every
// bit currently set in t (loaded atomically, so concurrent Kills on t
// either make it into the clone or remain visible on t for the caller
// to re-apply). This is the snapshot-swap primitive: the new snapshot
// gets a fresh set sized to the grown ID range, seeded with all deaths
// the old snapshot observed.
func (t *TombSet) CloneGrow(n int) *TombSet {
	if n < t.Len() {
		n = t.Len()
	}
	out := NewTombSet(n)
	if t == nil {
		return out
	}
	var dead int64
	for i := range t.bits {
		w := atomic.LoadUint64(&t.bits[i])
		out.bits[i] = w
		dead += int64(bits.OnesCount64(w))
	}
	out.dead.Store(dead)
	return out
}

// Snapshot returns the dead IDs as a plain sorted slice — the
// deterministic input handed to an incremental build (a build must not
// see bits flip mid-flight, so it works from this frozen copy, not the
// live set).
func (t *TombSet) Snapshot() []ID {
	if t == nil {
		return nil
	}
	out := make([]ID, 0, t.Count())
	for i := range t.bits {
		w := atomic.LoadUint64(&t.bits[i])
		for ; w != 0; w &= w - 1 {
			id := ID(i*64 + bits.TrailingZeros64(w))
			if int(id) < t.n {
				out = append(out, id)
			}
		}
	}
	return out
}

// tombMagic identifies serialized tombstone sets ("TOMB" little-endian).
const tombMagic uint32 = 0x424d4f54

const tombVersion uint32 = 1

// Marshal encodes the set to a binary blob understood by
// UnmarshalTombSet. Not atomic with respect to concurrent Kills; the
// store layer serializes under its mutation lock.
func (t *TombSet) Marshal() []byte {
	n := t.Len()
	words := (n + 63) / 64
	w := wire.NewWriter(16 + 8*words)
	w.Uint32(tombMagic)
	w.Uint32(tombVersion)
	w.Uint32(uint32(n))
	for i := 0; i < words; i++ {
		w.Uint64(atomic.LoadUint64(&t.bits[i]))
	}
	return w.Bytes()
}

// UnmarshalTombSet decodes a blob produced by Marshal.
func UnmarshalTombSet(p []byte) (*TombSet, error) {
	r := wire.NewReader(p)
	if r.Uint32() != tombMagic {
		return nil, fmt.Errorf("knng: bad tombstone magic")
	}
	if v := r.Uint32(); v != tombVersion {
		return nil, fmt.Errorf("knng: unsupported tombstone version %d", v)
	}
	n := int(r.Uint32())
	if r.Err() != nil || n > wire.MaxVectorLen || (n+63)/64*8 > r.Remaining() {
		return nil, fmt.Errorf("knng: bad tombstone count")
	}
	t := NewTombSet(n)
	var dead int64
	for i := range t.bits {
		w := r.Uint64()
		t.bits[i] = w
		dead += int64(bits.OnesCount64(w))
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("knng: bad tombstone data: %v", err)
	}
	// The last word carries only n%64 valid bits; a blob with bits set
	// beyond n would inflate Count() past any killable ID range and
	// break the store's TombN consistency check.
	if tail := n & 63; tail != 0 && t.bits[len(t.bits)-1]>>uint(tail) != 0 {
		return nil, fmt.Errorf("knng: tombstone bits set beyond n=%d", n)
	}
	t.dead.Store(dead)
	return t, nil
}
