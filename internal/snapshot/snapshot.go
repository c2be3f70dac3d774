// Package snapshot is the versioned on-disk container for checkpointed
// runs: a magic string, a format version, and a CRC-checked section
// table, with append-only encoders and sticky-error decoders that never
// panic and never allocate more than the input could justify — the
// properties FuzzSnapshotDecode pins.
//
// The container is deliberately dumb: sections are opaque byte blobs
// tagged with a small ID. What goes in them — the CSR graph dump, the
// color lists, the engine's per-domain cuts, algorithm-specific state —
// is defined by the codecs in this package and assembled by the
// algorithm layers (core, netdecomp). Every codec writes a canonical
// byte stream (no map iteration, fixed field order), so decoding a
// snapshot and re-encoding it reproduces the input byte for byte; the
// golden-file test pins that property for format v1.
//
//sbw:stickydecoder container decode path for hostile snapshot bytes (FuzzSnapshotDecode); sticky errors, never panics
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic opens every snapshot file; the trailing digit is the major
// format generation (bumped only if the container layout itself breaks).
const Magic = "SBWSNAP1"

// Version is the current format version. Decoders reject versions they
// don't know — a version bump is an explicit compatibility break.
const Version = 1

// Section IDs of format v1. Snapshots carry a subset, in any order, at
// most once each.
const (
	// SecMeta fingerprints the run: simulated model, algorithm options.
	// A resume refuses a snapshot whose fingerprint does not match.
	SecMeta uint32 = 1
	// SecGraph is the straight CSR dump of the topology (delta-coded).
	SecGraph uint32 = 2
	// SecLists is the list-coloring instance's color space and per-node
	// lists (delta-coded; lists are sorted ascending).
	SecLists uint32 = 3
	// SecEngine is the engine's consistent cut: per-domain rounds, Stats,
	// committed node blobs, and queued backlog.
	SecEngine uint32 = 4
	// SecAlgo is algorithm-layer state outside the engine cut (e.g. the
	// decomposed pipeline's between-class progress).
	SecAlgo uint32 = 5
	// SecRNG records generator-seed provenance. The coloring algorithms
	// of this repository are deterministic and keep no live RNG state —
	// randomness only ever enters through the instance generators' seeds
	// — so this section is an audit trail, not restored machine state.
	SecRNG uint32 = 6

	// IDs 16–18 belong to the persistent graph store (internal/store),
	// which reuses this container for its on-disk format. They are
	// registered here so the one ID space stays collision-free; the
	// section payloads are defined by the store package.

	// SecStoreMeta fingerprints a graph-store file and records its
	// shape (n, m, Δ) plus alignment padding for the raw sections.
	SecStoreMeta uint32 = 16
	// SecStoreOff is the raw little-endian int32 CSR offset table.
	SecStoreOff uint32 = 17
	// SecStoreNbr is the raw little-endian int32 CSR arc arena.
	SecStoreNbr uint32 = 18
)

// maxSections bounds the section table; format v1 defines six
// checkpoint IDs plus the three graph-store IDs.
const maxSections = 64

// Section is one tagged blob of a snapshot.
type Section struct {
	ID   uint32
	Data []byte
}

// Container is a decoded snapshot file.
type Container struct {
	Version  uint32
	Sections []Section
}

// Find returns the data of the section with the given ID, or nil.
func (c *Container) Find(id uint32) []byte {
	for i := range c.Sections {
		if c.Sections[i].ID == id {
			return c.Sections[i].Data
		}
	}
	return nil
}

// Encode serializes the container: magic, version, section count, then
// a (id, length, crc32) table, then the payloads in table order.
func Encode(c *Container) []byte {
	n := len(Magic) + 8 + 12*len(c.Sections)
	for i := range c.Sections {
		n += len(c.Sections[i].Data)
	}
	b := make([]byte, 0, n) //sbw:stickyok encode path: n sums in-memory section lengths, not decoded input
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, c.Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Sections)))
	for i := range c.Sections {
		s := &c.Sections[i]
		b = binary.LittleEndian.AppendUint32(b, s.ID)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Data)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(s.Data))
	}
	for i := range c.Sections {
		b = append(b, c.Sections[i].Data...)
	}
	return b
}

// Decode parses a snapshot file. Corrupt, truncated, or
// version-incompatible input returns an error; the parse never panics
// and allocates no more than the input size justifies. Section payloads
// alias the input buffer.
func Decode(b []byte) (*Container, error) {
	if len(b) < len(Magic)+8 {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the header", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, errors.New("snapshot: bad magic")
	}
	ver := binary.LittleEndian.Uint32(b[len(Magic):])
	if ver != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads %d)", ver, Version)
	}
	count := binary.LittleEndian.Uint32(b[len(Magic)+4:])
	if count > maxSections {
		return nil, fmt.Errorf("snapshot: section count %d exceeds the limit %d", count, maxSections)
	}
	rest := b[len(Magic)+8:]
	if uint64(len(rest)) < 12*uint64(count) {
		return nil, errors.New("snapshot: truncated section table")
	}
	table, payload := rest[:12*count], rest[12*count:]
	c := &Container{Version: ver, Sections: make([]Section, count)}
	seen := make(map[uint32]bool, count)
	var need uint64
	for i := range c.Sections {
		c.Sections[i].ID = binary.LittleEndian.Uint32(table[12*i:])
		need += uint64(binary.LittleEndian.Uint32(table[12*i+4:]))
		if seen[c.Sections[i].ID] {
			return nil, fmt.Errorf("snapshot: duplicate section %d", c.Sections[i].ID)
		}
		seen[c.Sections[i].ID] = true
	}
	if need != uint64(len(payload)) {
		return nil, fmt.Errorf("snapshot: section table claims %d payload bytes, file has %d", need, len(payload))
	}
	off := 0
	for i := range c.Sections {
		size := int(binary.LittleEndian.Uint32(table[12*i+4:]))
		data := payload[off : off+size : off+size]
		if crc := binary.LittleEndian.Uint32(table[12*i+8:]); crc != crc32.ChecksumIEEE(data) {
			return nil, fmt.Errorf("snapshot: section %d fails its checksum", c.Sections[i].ID)
		}
		c.Sections[i].Data = data
		off += size
	}
	return c, nil
}

// Enc is an append-based section encoder. All integers are unsigned
// varints unless a method says otherwise; the field order of a codec is
// its format definition.
type Enc struct {
	b []byte
}

// Bytes returns the encoded stream.
func (e *Enc) Bytes() []byte { return e.b }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Varint appends a signed (zigzag) varint.
func (e *Enc) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// U64 appends a fixed-width little-endian 64-bit word.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Blob appends a length-prefixed byte string.
func (e *Enc) Blob(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// Dec is a sticky-error section decoder: after the first malformed
// field every subsequent read returns zero values and Err() reports the
// failure, so codecs read a whole record without per-field checks and
// validate once. Reads never panic; count fields are checked against
// the remaining input before any allocation sized by them.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps a section payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Close reports the sticky error, or an error if unread bytes remain —
// a canonical stream is consumed exactly.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snapshot: %d trailing bytes after the last field", len(d.b)-d.off)
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:]) //sbw:stickyok Dec invariant: off ≤ len(b) (every advance is guarded), so the tail slice is always valid
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed (zigzag) varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:]) //sbw:stickyok Dec invariant: off ≤ len(b) (every advance is guarded), so the tail slice is always valid
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// U64 reads a fixed-width little-endian 64-bit word.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated u64 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// Count reads an element count whose elements each occupy at least
// elemBytes input bytes, rejecting counts the remaining input cannot
// hold — the OOM guard in front of every count-sized allocation.
func (d *Dec) Count(elemBytes int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if v > uint64(d.Remaining())/uint64(elemBytes) {
		d.fail("count %d exceeds what %d remaining bytes can hold", v, d.Remaining())
		return 0
	}
	return int(v)
}

// Blob reads a length-prefixed byte string, copied out of the input.
func (d *Dec) Blob() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[d.off:d.off+n]) //sbw:stickyok off+n ≤ len(b): n just passed the Count(1) guard against the remaining input
	d.off += n
	return p
}
