package expertgraph

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// Serialization of expert networks. The on-disk format is a gob stream
// of the flattened graph (format-versioned), which round-trips every
// field including the CSR layout, so a 40K-node corpus loads in
// milliseconds instead of being regenerated.

const ioFormatVersion = 1

// flatGraph is the serialized form. All fields are exported for gob.
// Removed (tombstoned experts) was added after version 1 shipped; gob
// matches fields by name, so old files decode with no tombstones and
// old readers simply drop the flags (removed nodes are isolated and
// skill-less either way), keeping the format version stable. The
// HasBounds/bounds fields were added the same way: a graph carrying
// covering normalization bounds wider than its tight extremes (the
// live layer widens materialized graphs, see Graph.WidenBounds) must
// persist them, or a restart would silently shrink the bounds and
// invalidate every index built over them. Old files decode with
// HasBounds false and keep the recomputed tight bounds, exactly what
// they were saved with.
type flatGraph struct {
	Version    int
	Nodes      []Node
	SkillNames []string
	NodeSkOff  []int32
	NodeSk     []SkillID
	EdgeU      []NodeID
	EdgeV      []NodeID
	EdgeW      []float64
	Removed    []bool
	HasBounds  bool
	MinW       float64
	MaxW       float64
	MinInv     float64
	MaxInv     float64
}

// Write encodes g to w.
func Write(w io.Writer, g *Graph) error {
	f := flatGraph{
		Version:    ioFormatVersion,
		Nodes:      g.nodes,
		SkillNames: g.skillNames,
		NodeSkOff:  g.nodeSkOff,
		NodeSk:     g.nodeSk,
	}
	if g.numRemoved > 0 {
		f.Removed = g.removed
	}
	f.HasBounds = true
	f.MinW, f.MaxW = g.minW, g.maxW
	f.MinInv, f.MaxInv = g.minInv, g.maxInv
	f.EdgeU = make([]NodeID, 0, g.numEdges)
	f.EdgeV = make([]NodeID, 0, g.numEdges)
	f.EdgeW = make([]float64, 0, g.numEdges)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		g.Neighbors(u, func(v NodeID, wt float64) bool {
			if u < v {
				f.EdgeU = append(f.EdgeU, u)
				f.EdgeV = append(f.EdgeV, v)
				f.EdgeW = append(f.EdgeW, wt)
			}
			return true
		})
	}
	if err := gob.NewEncoder(w).Encode(&f); err != nil {
		return fmt.Errorf("expertgraph: encode: %w", err)
	}
	return nil
}

// Read decodes a graph previously written with Write.
func Read(r io.Reader) (*Graph, error) {
	var f flatGraph
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("expertgraph: decode: %w", err)
	}
	if f.Version != ioFormatVersion {
		return nil, fmt.Errorf("expertgraph: unsupported format version %d", f.Version)
	}
	if err := f.check(); err != nil {
		return nil, fmt.Errorf("expertgraph: decode: %w", err)
	}
	b := NewBuilder(len(f.Nodes), len(f.EdgeU))
	for i, nd := range f.Nodes {
		id := b.AddNode(nd.Name, nd.Authority)
		b.SetPubs(id, nd.Pubs)
		for _, s := range f.NodeSk[f.NodeSkOff[i]:f.NodeSkOff[i+1]] {
			b.AddSkillTo(id, f.SkillNames[s])
		}
		if i < len(f.Removed) && f.Removed[i] {
			b.RemoveNode(id)
		}
	}
	for i := range f.EdgeU {
		b.AddEdge(f.EdgeU[i], f.EdgeV[i], f.EdgeW[i])
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("expertgraph: rebuild: %w", err)
	}
	if f.HasBounds {
		g.WidenBounds(f.MinW, f.MaxW, f.MinInv, f.MaxInv)
	}
	return g, nil
}

// check rejects what the rebuild in Read would index out of range:
// skill offsets that are not one per node plus one, ascending and
// inside NodeSk; skill IDs past the skill table; and edge arrays of
// unequal length. Endpoints and weights are the builder's to validate.
func (f *flatGraph) check() error {
	off := f.NodeSkOff
	if len(off) != len(f.Nodes)+1 {
		return fmt.Errorf("%d skill offsets for %d nodes", len(off), len(f.Nodes))
	}
	if off[0] < 0 || int(off[len(off)-1]) > len(f.NodeSk) {
		return fmt.Errorf("skill offsets [%d, %d] outside %d skill entries", off[0], off[len(off)-1], len(f.NodeSk))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("skill offsets decrease at node %d", i-1)
		}
	}
	for _, s := range f.NodeSk {
		if s < 0 || int(s) >= len(f.SkillNames) {
			return fmt.Errorf("skill ID %d outside %d skill names", s, len(f.SkillNames))
		}
	}
	if len(f.EdgeV) != len(f.EdgeU) || len(f.EdgeW) != len(f.EdgeU) {
		return fmt.Errorf("edge arrays of lengths %d, %d, %d", len(f.EdgeU), len(f.EdgeV), len(f.EdgeW))
	}
	return nil
}

// SaveFile writes g to path, creating or truncating it.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("expertgraph: save: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := Write(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("expertgraph: save: %w", err)
	}
	return f.Close()
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("expertgraph: load: %w", err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
