package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/workload"
)

// corpus is one workload's base expert network: the graph the program
// loads from a file, kept here only to generate load and check replies.
type corpus struct {
	authors int
	g       *expertgraph.Graph
	file    []byte // the graph in the on-disk format server.New loads
	byName  map[string]expertgraph.NodeID
	// Covering ranges of the base graph. Generated writes stay inside
	// them so no mutation widens the normalization bounds (which would
	// force full index rebuilds instead of repairs).
	minW, maxW       float64
	minAuth, maxAuth float64
	// mix is the mutation mix, measured on the corpus model.
	mix mix
}

// newCorpus synthesizes the DBLP stand-in of the given size and keeps
// its largest component, as dblpgen does.
func newCorpus(authors int, seed int64) (*corpus, error) {
	c := dblp.Synthesize(dblp.SynthConfig{Seed: seed, Authors: authors})
	g, _, err := dblp.BuildGraph(c, dblp.GraphOptions{LargestComponent: true})
	if err != nil {
		return nil, err
	}
	m, err := deriveMix(c)
	if err != nil {
		return nil, fmt.Errorf("corpus of %d authors: %w", authors, err)
	}
	var buf bytes.Buffer
	if err := expertgraph.Write(&buf, g); err != nil {
		return nil, err
	}
	cp := &corpus{authors: authors, g: g, file: buf.Bytes(), byName: make(map[string]expertgraph.NodeID, g.NumNodes()), mix: m}
	cp.minW, cp.maxW = math.Inf(1), math.Inf(-1)
	cp.minAuth, cp.maxAuth = math.Inf(1), math.Inf(-1)
	for u := expertgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		cp.byName[g.Name(u)] = u
		cp.minAuth = math.Min(cp.minAuth, g.Authority(u))
		cp.maxAuth = math.Max(cp.maxAuth, g.Authority(u))
		g.Neighbors(u, func(_ expertgraph.NodeID, w float64) bool {
			cp.minW, cp.maxW = math.Min(cp.minW, w), math.Max(cp.maxW, w)
			return true
		})
	}
	if g.NumEdges() == 0 || cp.maxAuth < cp.minAuth {
		return nil, fmt.Errorf("corpus of %d authors has no edges", authors)
	}
	return cp, nil
}

// writeFile stores the graph file under dir and returns its path.
func (c *corpus) writeFile(dir string) (string, error) {
	path := filepath.Join(dir, "graph.bin")
	return path, os.WriteFile(path, c.file, 0o644)
}

// discoverReq is one discover request of a workload's list.
type discoverReq struct {
	Skills []string `json:"skills"`
	Method string   `json:"method"`
	K      int      `json:"k"`
}

// key identifies the request's result-cache entry: the server treats
// skills as a set, so the key does too.
func (r discoverReq) key() string {
	skills := append([]string(nil), r.Skills...)
	sort.Strings(skills)
	return fmt.Sprint(r.Method, r.K, skills)
}

// uniqueProjects draws n distinct feasible projects from
// workload.Generator: 4, 6, 8 or 10 skills (the sizes of the paper's
// §4), methods sa-ca-cc, ca-cc and cc in a 3:1:1 mix, k from 1 to 3.
// Sizes, methods and k rotate in a fixed pattern, so every 60
// consecutive requests hold each combination once and lists of
// different seeds differ only in their projects. Distinct means no two
// requests share a result-cache key, so every request of the list
// misses the cache.
func uniqueProjects(c *corpus, n int, seed int64, exclude map[string]bool) ([]discoverReq, error) {
	gen, err := workload.NewGenerator(c.g, seed, workload.Options{})
	if err != nil {
		return nil, err
	}
	methods := []string{"sa-ca-cc", "sa-ca-cc", "sa-ca-cc", "ca-cc", "cc"}
	seen := make(map[string]bool, n)
	out := make([]discoverReq, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 20*n {
			return nil, fmt.Errorf("only %d distinct projects after %d draws", len(out), tries)
		}
		i := len(out)
		p, err := gen.Project(4 + 2*(i%4))
		if err != nil {
			return nil, err
		}
		r := discoverReq{Skills: skillNames(c.g, p), Method: methods[i/4%5], K: 1 + i/20%3}
		if k := r.key(); !seen[k] && !exclude[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out, nil
}

// zipfPool returns a pool of distinct sa-ca-cc projects with 4–6
// skills drawn with poolSeed, and a draw sequence over it drawn with
// seed, Zipf-distributed with s=1.1.
func zipfPool(c *corpus, poolSize, draws int, poolSeed, seed int64) ([]discoverReq, []int, error) {
	gen, err := workload.NewGenerator(c.g, poolSeed, workload.Options{})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(poolSeed))
	seen := make(map[string]bool, poolSize)
	var pool []discoverReq
	for tries := 0; len(pool) < poolSize; tries++ {
		if tries > 100*poolSize {
			return nil, nil, fmt.Errorf("only %d distinct pool projects", len(pool))
		}
		p, err := gen.Project(4 + rng.Intn(3))
		if err != nil {
			return nil, nil, err
		}
		r := discoverReq{Skills: skillNames(c.g, p), Method: "sa-ca-cc", K: 1 + rng.Intn(3)}
		if !seen[r.key()] {
			seen[r.key()] = true
			pool = append(pool, r)
		}
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(poolSize-1))
	seq := make([]int, draws)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return pool, seq, nil
}

// warmupReqs is one request per method, used by set-up; its project
// is excluded from the timed lists so it cannot turn a miss into a hit.
func warmupReqs(c *corpus, seed int64, warm []string) ([]discoverReq, error) {
	gen, err := workload.NewGenerator(c.g, seed^0x5eed, workload.Options{})
	if err != nil {
		return nil, err
	}
	p, err := gen.Project(4)
	if err != nil {
		return nil, err
	}
	out := make([]discoverReq, len(warm))
	for i, m := range warm {
		out[i] = discoverReq{Skills: skillNames(c.g, p), Method: m, K: 1}
	}
	return out, nil
}

func skillNames(g *expertgraph.Graph, p []expertgraph.SkillID) []string {
	out := make([]string, len(p))
	for i, s := range p {
		out[i] = g.SkillName(s)
	}
	return out
}
