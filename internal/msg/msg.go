// Package msg is the typed message-codec layer: one struct per wire
// message exchanged by the DNND construction (internal/core), the
// query server (internal/serve) and the router (internal/router), each
// with Encode/Decode methods over the wire codec. The byte layouts are
// pinned — golden tests in this package compare every Encode against
// the hand-rolled
// writer sequences the handlers used before this layer existed, so
// message counts and byte volumes (the paper's Figure 4 accounting)
// are bit-identical across the refactor.
//
// Layout conventions: all integers little-endian; vectors and ID lists
// are a uint32 element count followed by the raw elements
// (wire.PutVector / wire.Writer.Uint32s); neighbor lists are a uint32
// count followed by (ID uint32, Dist float32) pairs. The NN-Descent
// new/old flag never crosses the wire.
//
// Decode methods never panic on corrupt input: they leave the error in
// the wire.Reader for the caller's Finish() check (fuzz targets in this
// package hold them to that). Vector-carrying messages additionally
// offer DecodeHead, which stops before the trailing vector so the
// construction hot path can extract it with its own borrowing decoder
// (a direct call the compiler can analyze; a func-valued extractor
// parameter would force the Reader to escape to the heap).
package msg

import (
	"dnnd/internal/knng"
	"dnnd/internal/wire"
)

// putNeighbors appends a neighbor list as count + (ID, Dist) pairs,
// the shared tail layout of GatherRow and SResult.
func putNeighbors(w *wire.Writer, ns []knng.Neighbor) {
	w.Uint32(uint32(len(ns)))
	for _, nb := range ns {
		w.Uint32(nb.ID)
		w.Float32(nb.Dist)
	}
}

// getNeighbors decodes a count-prefixed neighbor list. The count is
// validated against the bytes remaining before the slice is sized, so
// a corrupt frame fails the Reader instead of forcing a huge
// allocation.
func getNeighbors(r *wire.Reader) []knng.Neighbor {
	n := r.Count(8)
	if r.Err() != nil {
		return nil
	}
	ns := make([]knng.Neighbor, n)
	for i := range ns {
		ns[i].ID = r.Uint32()
		ns[i].Dist = r.Float32()
	}
	return ns
}
