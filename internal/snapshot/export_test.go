package snapshot

import "encoding/binary"

// Varint appends a signed (zigzag) varint, the encoding Dec.Varint
// reads. No codec of this package writes one; the commit blobs of
// internal/core append theirs directly.
func (e *Enc) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }
