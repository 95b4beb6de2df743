package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"

	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/server"
)

type opKind uint8

const (
	opAddEdge    opKind = iota // a collaboration between existing experts
	opUpdateEdge               // re-weight a collaboration
	opTick                     // raise an expert's authority by 1 (an h-index tick)
	opRemoveEdge               // remove a collaboration the stream added
	opAddExpert                // a new expert; the next mutation is its first collaboration
)

var opNames = [...]string{"add_edge", "update_edge", "tick", "remove_edge", "add_expert"}

func (k opKind) String() string { return opNames[k] }

// nodeRef names a node of the base graph, or — with local ≥ 0 — the
// local-th expert the same writer added, whose NodeID is known only
// once the program acknowledges the add.
type nodeRef struct {
	id    expertgraph.NodeID
	local int32
}

func baseNode(id expertgraph.NodeID) nodeRef { return nodeRef{id: id, local: -1} }

func (r nodeRef) resolve(added []expertgraph.NodeID) expertgraph.NodeID {
	if r.local >= 0 {
		return added[r.local]
	}
	return r.id
}

type edgeRef struct{ a, b nodeRef }

func newEdgeRef(a, b nodeRef) edgeRef {
	if b.local < a.local || (b.local == a.local && b.id < a.id) {
		a, b = b, a
	}
	return edgeRef{a, b}
}

// mutation is one write of a generated list. Lists run to millions of
// writes, so the rare expert's name and skills sit behind a pointer.
type mutation struct {
	kind   opKind
	u, v   nodeRef    // edges; u alone for a tick
	value  float64    // add, re-weight: the new weight; tick, add expert: the authority
	expert *newExpert // add expert
}

type newExpert struct {
	name   string
	skills []string
}

// request encodes the mutation as the HTTP call the server's mutation
// API takes, with the writer's added experts resolved to their IDs.
func (m *mutation) request(added []expertgraph.NodeID) (method, path string, body []byte, want int) {
	var v any
	switch m.kind {
	case opAddEdge:
		method, path, want = http.MethodPost, "/v1/graph/edges", http.StatusCreated
		v = server.AddEdgeRequest{U: m.u.resolve(added), V: m.v.resolve(added), W: m.value}
	case opUpdateEdge:
		method, path, want = http.MethodPatch, "/v1/graph/edges", http.StatusOK
		v = server.UpdateEdgeRequest{U: m.u.resolve(added), V: m.v.resolve(added), W: m.value}
	case opTick:
		method, want = http.MethodPatch, http.StatusOK
		path = "/v1/graph/nodes/" + strconv.Itoa(int(m.u.resolve(added)))
		v = server.UpdateNodeRequest{Authority: &m.value}
	case opRemoveEdge:
		method, path, want = http.MethodDelete, "/v1/graph/edges", http.StatusOK
		v = server.RemoveEdgeRequest{U: m.u.resolve(added), V: m.v.resolve(added)}
	case opAddExpert:
		method, path, want = http.MethodPost, "/v1/graph/nodes", http.StatusCreated
		v = server.AddNodeRequest{Name: m.expert.name, Authority: m.value, Skills: m.expert.skills}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return method, path, body, want
}

// apply performs the mutation directly on a store (the in-process
// replay), appending an added expert's ID to *added.
func (m *mutation) apply(st *live.Store, added *[]expertgraph.NodeID) (uint64, error) {
	switch m.kind {
	case opAddEdge:
		return st.AddCollaboration(m.u.resolve(*added), m.v.resolve(*added), m.value)
	case opUpdateEdge:
		return st.UpdateCollaboration(m.u.resolve(*added), m.v.resolve(*added), m.value)
	case opTick:
		a := m.value
		return st.UpdateExpert(m.u.resolve(*added), &a, nil)
	case opRemoveEdge:
		return st.RemoveCollaboration(m.u.resolve(*added), m.v.resolve(*added))
	default:
		id, epoch, err := st.AddExpert(m.expert.name, m.value, m.expert.skills)
		if err == nil {
			*added = append(*added, id)
		}
		return epoch, err
	}
}

// mix is the share of each mutation kind in a generated list, as
// deriveMix measures it on the corpus model.
type mix struct {
	addEdge, updateEdge, tick, removeEdge, addExpert float64 // sum to 1
	// triadic is the share of new collaborations between two experts
	// who already share a coauthor; the rest join any two experts.
	triadic float64
}

func (m mix) String() string {
	return fmt.Sprintf("add %.1f%% (%.0f%% triadic), re-weight %.1f%%, tick %.1f%%, remove %.1f%%, new expert %.2f%%",
		100*m.addEdge, 100*m.triadic, 100*m.updateEdge, 100*m.tick, 100*m.removeEdge, 100*m.addExpert)
}

// mixYears is how many of the corpus's last publication years deriveMix
// replays.
const mixYears = 5

// deriveMix measures the mutation mix on the corpus the workload's
// graph is built from. It replays the papers of the corpus's last
// mixYears years, year by year, over the bibliography before them, and
// counts what each paper does to the expert network: a coauthor pair
// that never published together is a new collaboration (triadic when
// the two already shared a coauthor), a repeat pair moves the pair's
// Jaccard weight (a re-weight), each rise of an author's h-index is a
// tick, and an author's first paper adds an expert. The model never
// ends a collaboration, so removals are set to the rate of adds: that
// keeps the edge count level over a run.
func deriveMix(c *dblp.Corpus) (mix, error) {
	last := 0
	for _, p := range c.Papers {
		last = max(last, p.Year)
	}
	cutoff := last - mixYears + 1
	coauthors := make([]map[dblp.AuthorID]bool, len(c.Authors))
	link := func(u, v dblp.AuthorID) {
		for _, e := range [2][2]dblp.AuthorID{{u, v}, {v, u}} {
			if coauthors[e[0]] == nil {
				coauthors[e[0]] = make(map[dblp.AuthorID]bool)
			}
			coauthors[e[0]][e[1]] = true
		}
	}
	shareCoauthor := func(u, v dblp.AuthorID) bool {
		a, b := coauthors[u], coauthors[v]
		if len(a) > len(b) {
			a, b = b, a
		}
		for x := range a {
			if b[x] {
				return true
			}
		}
		return false
	}
	cites := make([][]int, len(c.Authors))
	var stream []dblp.Paper
	for _, p := range c.Papers {
		if p.Year >= cutoff {
			stream = append(stream, p)
			continue
		}
		for i, u := range p.Authors {
			cites[u] = append(cites[u], p.Citations)
			for _, v := range p.Authors[i+1:] {
				link(u, v)
			}
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Year < stream[j].Year })
	var adds, triadic, reweights, ticks, experts int
	for _, p := range stream {
		var fresh [][2]dblp.AuthorID
		for i, u := range p.Authors {
			for _, v := range p.Authors[i+1:] {
				switch {
				case coauthors[u][v]:
					reweights++
				case shareCoauthor(u, v):
					triadic++
					fresh = append(fresh, [2]dblp.AuthorID{u, v})
				default:
					fresh = append(fresh, [2]dblp.AuthorID{u, v})
				}
			}
		}
		adds += len(fresh)
		for _, e := range fresh {
			link(e[0], e[1])
		}
		for _, u := range p.Authors {
			if len(cites[u]) == 0 {
				experts++
				cites[u] = append(cites[u], p.Citations)
				continue
			}
			h := dblp.HIndexOf(cites[u])
			cites[u] = append(cites[u], p.Citations)
			ticks += dblp.HIndexOf(cites[u]) - h
		}
	}
	if adds == 0 {
		return mix{}, fmt.Errorf("no new collaborations in the corpus's last %d years", mixYears)
	}
	total := float64(2*adds + reweights + ticks + experts)
	return mix{
		addEdge:    float64(adds) / total,
		updateEdge: float64(reweights) / total,
		tick:       float64(ticks) / total,
		removeEdge: float64(adds) / total,
		addExpert:  float64(experts) / total,
		triadic:    float64(triadic) / float64(adds),
	}, nil
}

// mutGen generates one writer's mutation list against a shadow copy
// of the part of the graph the writer owns. With several writers,
// writer i owns the base edges (u, v) with (u+v) mod writers = i, the
// base nodes with id mod writers = i, and everything it adds, so the
// writers' lists are valid in any interleaving: no write depends on,
// or conflicts with, another writer's.
type mutGen struct {
	c               *corpus
	rng             *rand.Rand
	writer, writers int
	name            string
	// cum holds the cumulative odds of drawing each kind, in opKind
	// order. An added expert's first collaboration is one of the mix's
	// adds, so a plain add is drawn at the add share less the expert
	// share.
	cum [5]float64

	weight    map[edgeRef]float64 // every owned edge present now, with its weight
	baseEdges []edgeRef           // owned base edges (never removed)
	added     []edgeRef           // stream-added edges present now
	addedAt   map[edgeRef]int     // index into added
	nodes     []nodeRef           // owned nodes (tick targets)
	auth      map[nodeRef]float64
	experts   int32 // experts added so far
}

// minAddedEdges is the floor of stream-added edges present: below it a
// drawn removal becomes an add, since only those edges are removed.
const minAddedEdges = 32

func newMutGen(c *corpus, seed int64, writer, writers int) *mutGen {
	mg := &mutGen{
		c:       c,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(writer))),
		writer:  writer,
		writers: writers,
		name:    fmt.Sprintf("servebench-%d-w%d", seed, writer),
		weight:  make(map[edgeRef]float64),
		addedAt: make(map[edgeRef]int),
		auth:    make(map[nodeRef]float64),
	}
	m := c.mix
	odds := [5]float64{
		opAddEdge:    max(m.addEdge-m.addExpert, 0),
		opUpdateEdge: m.updateEdge,
		opTick:       m.tick,
		opRemoveEdge: m.removeEdge,
		opAddExpert:  m.addExpert,
	}
	sum := 0.0
	for _, o := range odds {
		sum += o
	}
	acc := 0.0
	for k, o := range odds {
		acc += o / sum
		mg.cum[k] = acc
	}
	g := c.g
	for u := expertgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if int(u)%writers == writer {
			mg.nodes = append(mg.nodes, baseNode(u))
			mg.auth[baseNode(u)] = g.Authority(u)
		}
		g.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if u < v && int(u+v)%writers == writer {
				e := newEdgeRef(baseNode(u), baseNode(v))
				mg.baseEdges = append(mg.baseEdges, e)
				mg.weight[e] = w
			}
			return true
		})
	}
	return mg
}

// list generates n mutations (an added expert's first collaboration
// rides along, so the list may end one longer).
func (mg *mutGen) list(n int) []mutation {
	out := make([]mutation, 0, n+1)
	for len(out) < n {
		r := mg.rng.Float64()
		kind := opAddExpert
		for k, c := range mg.cum {
			if r < c {
				kind = opKind(k)
				break
			}
		}
		switch kind {
		case opAddExpert:
			out = append(out, mg.addExpert()...)
		case opTick:
			out = append(out, mg.tick())
		case opUpdateEdge:
			out = append(out, mg.updateEdge())
		case opRemoveEdge:
			if len(mg.added) >= minAddedEdges {
				out = append(out, mg.removeEdge())
				break
			}
			fallthrough
		default:
			out = append(out, mg.addEdge())
		}
	}
	return out
}

// newWeight draws a weight inside the base graph's range.
func (mg *mutGen) newWeight() float64 {
	return mg.c.minW + mg.rng.Float64()*(mg.c.maxW-mg.c.minW)
}

func (mg *mutGen) hasEdge(e edgeRef) bool {
	if _, ok := mg.weight[e]; ok {
		return true
	}
	// Base edges owned by the other writers are not in the shadow.
	if e.a.local < 0 && e.b.local < 0 {
		_, ok := mg.c.g.EdgeWeight(e.a.id, e.b.id)
		return ok
	}
	return false
}

func (mg *mutGen) owns(e edgeRef) bool {
	if e.a.local >= 0 || e.b.local >= 0 {
		return true
	}
	return int(e.a.id+e.b.id)%mg.writers == mg.writer
}

func (mg *mutGen) addEdge() mutation {
	g := mg.c.g
	n := g.NumNodes()
	triadic := mg.rng.Float64() < mg.c.mix.triadic
	var e edgeRef
	for {
		u := expertgraph.NodeID(mg.rng.Intn(n))
		v := expertgraph.NodeID(mg.rng.Intn(n))
		if triadic { // a coauthor's coauthor
			if mid, ok := mg.randomNeighbor(u); ok {
				if far, ok := mg.randomNeighbor(mid); ok {
					v = far
				}
			}
		}
		e = newEdgeRef(baseNode(u), baseNode(v))
		if u != v && mg.owns(e) && !mg.hasEdge(e) {
			break
		}
	}
	return mg.insert(e)
}

func (mg *mutGen) randomNeighbor(u expertgraph.NodeID) (expertgraph.NodeID, bool) {
	d := mg.c.g.Degree(u)
	if d == 0 {
		return 0, false
	}
	i, pick := mg.rng.Intn(d), expertgraph.NodeID(-1)
	mg.c.g.Neighbors(u, func(v expertgraph.NodeID, _ float64) bool {
		if i == 0 {
			pick = v
			return false
		}
		i--
		return true
	})
	return pick, pick >= 0
}

func (mg *mutGen) insert(e edgeRef) mutation {
	w := mg.newWeight()
	mg.weight[e] = w
	mg.addedAt[e] = len(mg.added)
	mg.added = append(mg.added, e)
	return mutation{kind: opAddEdge, u: e.a, v: e.b, value: w}
}

func (mg *mutGen) removeEdge() mutation {
	i := mg.rng.Intn(len(mg.added))
	e := mg.added[i]
	last := len(mg.added) - 1
	mg.added[i] = mg.added[last]
	mg.addedAt[mg.added[i]] = i
	mg.added = mg.added[:last]
	delete(mg.addedAt, e)
	delete(mg.weight, e)
	return mutation{kind: opRemoveEdge, u: e.a, v: e.b}
}

func (mg *mutGen) updateEdge() mutation {
	var e edgeRef
	if i := mg.rng.Intn(len(mg.baseEdges) + len(mg.added)); i < len(mg.baseEdges) {
		e = mg.baseEdges[i]
	} else {
		e = mg.added[i-len(mg.baseEdges)]
	}
	w := mg.newWeight()
	for w == mg.weight[e] {
		w = mg.newWeight()
	}
	mg.weight[e] = w
	return mutation{kind: opUpdateEdge, u: e.a, v: e.b, value: w}
}

func (mg *mutGen) tick() mutation {
	for tries := 0; tries < 1000; tries++ {
		u := mg.nodes[mg.rng.Intn(len(mg.nodes))]
		// Staying at or below the base maximum keeps the authority
		// bounds fixed.
		if a := mg.auth[u] + 1; a <= mg.c.maxAuth {
			mg.auth[u] = a
			return mutation{kind: opTick, u: u, value: a}
		}
	}
	return mg.updateEdge() // every owned expert is at the maximum
}

// addExpert adds a newcomer at the base graph's lowest authority, with
// 1–3 vocabulary skills, and its first collaboration.
func (mg *mutGen) addExpert() []mutation {
	g := mg.c.g
	local := mg.experts
	mg.experts++
	me := nodeRef{local: local}
	seen := make(map[string]bool)
	var skills []string
	for want := 1 + mg.rng.Intn(3); len(skills) < want; {
		s := g.SkillName(expertgraph.SkillID(mg.rng.Intn(g.NumSkills())))
		if !seen[s] {
			seen[s] = true
			skills = append(skills, s)
		}
	}
	mg.nodes = append(mg.nodes, me)
	mg.auth[me] = mg.c.minAuth
	add := mutation{kind: opAddExpert, value: mg.c.minAuth, expert: &newExpert{name: fmt.Sprintf("%s-%d", mg.name, local), skills: skills}}
	first := mg.insert(newEdgeRef(me, baseNode(expertgraph.NodeID(mg.rng.Intn(g.NumNodes())))))
	return []mutation{add, first}
}
