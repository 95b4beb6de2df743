package pll

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"authteam/internal/expertgraph"
)

// Index serialization: building a 2-hop cover is the expensive step, so
// tools persist it next to the graph and reload in milliseconds.
//
// The file format is version 3: a magic header, then one gob of the
// packed label store exactly as resident in memory plus the per-index
// fixed-point scale its distFixed payloads were quantized under. Read
// accepts nothing else. A persisted cover is a rebuildable cache, so an
// older version or a damaged file is an error the caller answers with a
// rebuild. The query path decodes labels without bounds checks, so Read
// validates every label before it adopts the bytes.

// magicV3 prefixes version-3 files.
var magicV3 = []byte("PLLIDX03")

// flatIndexV3 is the version-3 serialized form: the packed label store
// with Off counting bytes, and the fixed-point scale. All fields are
// exported for gob.
type flatIndexV3 struct {
	N      int
	Total  int
	Quant  float64
	Off    []int32
	Data   []byte
	RankOf []int32
	NodeAt []expertgraph.NodeID
}

// Write encodes the index to w in the version-3 format.
func Write(w io.Writer, ix *Index) error {
	if _, err := w.Write(magicV3); err != nil {
		return fmt.Errorf("pll: encode: %w", err)
	}
	f := flatIndexV3{
		N:      ix.n,
		Total:  ix.total,
		Quant:  ix.quant,
		Off:    ix.off,
		Data:   ix.data,
		RankOf: ix.rankOf,
		NodeAt: ix.nodeAt,
	}
	if err := gob.NewEncoder(w).Encode(&f); err != nil {
		return fmt.Errorf("pll: encode: %w", err)
	}
	return nil
}

// Read decodes an index written by Write. Any other input, and any
// version-3 file whose labels fail validation, is an error.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magicV3))
	if err != nil || !bytes.Equal(head, magicV3) {
		return nil, errors.New("pll: decode: not a version-3 index file")
	}
	br.Discard(len(magicV3))
	var f flatIndexV3
	if err := gob.NewDecoder(br).Decode(&f); err != nil {
		return nil, fmt.Errorf("pll: decode: %w", err)
	}
	ix := &Index{
		n:      f.N,
		off:    f.Off,
		data:   f.Data,
		total:  f.Total,
		quant:  f.Quant,
		rankOf: f.RankOf,
		nodeAt: f.NodeAt,
	}
	if err := ix.validate(); err != nil {
		return nil, fmt.Errorf("pll: decode: %w", err)
	}
	return ix, nil
}

// validate checks, in one pass, everything the unchecked label
// decoders (labelCursor, Probe) rely on: offsets that start at 0, never
// decrease and end at the end of the label store; labels that decode
// inside their own byte range into strictly increasing ranks below n,
// with every payload in range and every float distance non-negative;
// an entry count equal to total; a power-of-two scale of at least 1;
// and rankOf and nodeAt inverse permutations of 0..n-1. It records the
// longest label's entry count for Stats.
func (ix *Index) validate() error {
	n := ix.n
	if n < 0 || len(ix.off) != n+1 || len(ix.rankOf) != n || len(ix.nodeAt) != n {
		return errors.New("inconsistent index shape")
	}
	if frac, _ := math.Frexp(ix.quant); !(ix.quant >= 1) || frac != 0.5 {
		return fmt.Errorf("invalid quant scale %v", ix.quant)
	}
	if ix.off[0] != 0 || int(ix.off[n]) != len(ix.data) {
		return errors.New("label offsets do not span the label store")
	}
	entries := 0
	for u := 0; u < n; u++ {
		pos, end := int(ix.off[u]), int(ix.off[u+1])
		if end < pos || end > len(ix.data) {
			return fmt.Errorf("label offsets out of order at node %d", u)
		}
		label := ix.data[:end]
		rank, size := -1, 0
		for pos < end {
			h, k := binary.Uvarint(label[pos:])
			if k <= 0 {
				return fmt.Errorf("node %d: truncated label entry", u)
			}
			pos += k
			delta := h >> 2
			if delta == 0 || delta >= uint64(n-rank) {
				return fmt.Errorf("node %d: label rank out of order or range", u)
			}
			rank += int(delta)
			switch h & 3 {
			case distZero:
			case distFixed:
				_, k := binary.Uvarint(label[pos:])
				if k <= 0 {
					return fmt.Errorf("node %d: truncated fixed-point distance", u)
				}
				pos += k
			case distFloat:
				if end-pos < 8 {
					return fmt.Errorf("node %d: truncated float distance", u)
				}
				if d := math.Float64frombits(binary.LittleEndian.Uint64(label[pos:])); !(d >= 0) {
					return fmt.Errorf("node %d: invalid distance %v", u, d)
				}
				pos += 8
			default:
				return fmt.Errorf("node %d: unknown distance kind", u)
			}
			size++
		}
		entries += size
		ix.maxLabel = max(ix.maxLabel, size)
	}
	if entries != ix.total {
		return fmt.Errorf("%d label entries, header says %d", entries, ix.total)
	}
	for u, r := range ix.rankOf {
		if r < 0 || int(r) >= n || ix.nodeAt[r] != expertgraph.NodeID(u) {
			return errors.New("rank permutation is not a bijection")
		}
	}
	return nil
}
