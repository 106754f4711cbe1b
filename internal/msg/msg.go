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
// count followed by (ID uint32, Dist float32) pairs, the layout of the
// graph blob, written by knng.PutNeighbors. The NN-Descent new/old flag
// never crosses the wire.
//
// Decode methods never panic on corrupt input: they leave the error in
// the wire.Reader for the caller's Finish() check (fuzz targets in this
// package hold them to that). Vector-carrying messages additionally
// offer DecodeHead, which stops before the trailing vector so the
// construction hot path can extract it with its own borrowing decoder
// (a direct call the compiler can analyze; a func-valued extractor
// parameter would force the Reader to escape to the heap).
package msg
