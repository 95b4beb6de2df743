package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"authteam/internal/expertgraph"
	"authteam/internal/oracle"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// figure1Graph reproduces the motivating example of Figure 1: two
// candidate teams for skills {SN, TM}, identical topology and equal
// edge weights, but team (a)'s members have much higher h-indexes.
// CC cannot distinguish them; the authority-aware objectives must
// prefer team (a).
func figure1Graph(t *testing.T) (*expertgraph.Graph, []expertgraph.SkillID) {
	t.Helper()
	b := expertgraph.NewBuilder(6, 4)
	ren := b.AddNode("Xiang Ren", 11, "TM")
	han := b.AddNode("Jiawei Han", 139)
	liu := b.AddNode("Jialu Liu", 9, "SN")
	kotzias := b.AddNode("Dimitrios Kotzias", 3, "TM")
	lappas := b.AddNode("Theodoros Lappas", 12)
	golshan := b.AddNode("Behzad Golshan", 5, "SN")
	b.AddEdge(ren, han, 1)
	b.AddEdge(han, liu, 1)
	b.AddEdge(kotzias, lappas, 1)
	b.AddEdge(lappas, golshan, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sn, _ := g.SkillID("SN")
	tm, _ := g.SkillID("TM")
	return g, []expertgraph.SkillID{sn, tm}
}

func fitOrDie(t *testing.T, g *expertgraph.Graph, gamma, lambda float64) *transform.Params {
	t.Helper()
	p, err := transform.Fit(g, gamma, lambda, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFigure1AuthorityPreference(t *testing.T) {
	g, project := figure1Graph(t)
	p := fitOrDie(t, g, 0.6, 0.6)

	for _, m := range []Method{CACC, SACACC} {
		d := NewDiscoverer(p, m)
		tm, err := d.BestTeam(project)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		names := make(map[string]bool)
		for _, u := range tm.Nodes {
			names[g.Name(u)] = true
		}
		if !names["Jiawei Han"] {
			t.Errorf("%v picked low-authority team: %v", m, names)
		}
	}
}

func TestFigure1CCCannotDistinguish(t *testing.T) {
	g, project := figure1Graph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, CC)
	teams, err := d.TopK(project, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) != 2 {
		t.Fatalf("want both teams in top-2, got %d", len(teams))
	}
	// Equal weights: both teams have identical CC scores.
	s0 := team.Evaluate(teams[0], p)
	s1 := team.Evaluate(teams[1], p)
	if math.Abs(s0.CC-s1.CC) > 1e-12 {
		t.Errorf("CC scores should tie: %v vs %v", s0.CC, s1.CC)
	}
}

// gridGraph builds a small graph with a designated cheap path and an
// expensive direct edge so CC optimization is non-trivial:
//
//	s0(db) --5.0-- s1(ml)
//	s0 --1.0-- c0 --1.0-- s1      (c0 authority 10)
func gridGraph(t *testing.T) (*expertgraph.Graph, []expertgraph.SkillID) {
	t.Helper()
	b := expertgraph.NewBuilder(3, 3)
	s0 := b.AddNode("s0", 2, "db")
	s1 := b.AddNode("s1", 2, "ml")
	c0 := b.AddNode("c0", 10)
	b.AddEdge(s0, s1, 5.0)
	b.AddEdge(s0, c0, 1.0)
	b.AddEdge(c0, s1, 1.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, _ := g.SkillID("db")
	ml, _ := g.SkillID("ml")
	return g, []expertgraph.SkillID{db, ml}
}

func TestCCPrefersCheapPath(t *testing.T) {
	g, project := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, CC)
	tm, err := d.BestTeam(project)
	if err != nil {
		t.Fatal(err)
	}
	// The cheap route goes through the connector c0 (total 2.0 < 5.0).
	if tm.Size() != 3 {
		t.Errorf("team size = %d, want 3 (via connector)", tm.Size())
	}
	if err := tm.Validate(g, project); err != nil {
		t.Errorf("invalid team: %v", err)
	}
}

func TestRootCoversAllSkills(t *testing.T) {
	b := expertgraph.NewBuilder(3, 2)
	super := b.AddNode("super", 5, "db", "ml")
	other := b.AddNode("other", 1, "db")
	third := b.AddNode("third", 1, "ml")
	b.AddEdge(super, other, 1)
	b.AddEdge(other, third, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, _ := g.SkillID("db")
	ml, _ := g.SkillID("ml")
	project := []expertgraph.SkillID{db, ml}
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, CC)
	tm, err := d.BestTeam(project)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Size() != 1 || tm.Nodes[0] != super {
		t.Errorf("single super-expert should win: %+v", tm)
	}
	if len(tm.Holders()) != 1 {
		t.Errorf("Holders = %v, want just super", tm.Holders())
	}
}

func TestTopKOrderingAndDedup(t *testing.T) {
	g, project := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, SACACC)
	teams, err := d.TopK(project, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) == 0 {
		t.Fatal("no teams")
	}
	// Dedup: all returned teams must have distinct signatures.
	seen := make(map[string]bool)
	for _, tm := range teams {
		sig := signature(tm)
		if seen[sig] {
			t.Error("duplicate team in top-k")
		}
		seen[sig] = true
		if err := tm.Validate(g, project); err != nil {
			t.Errorf("invalid team in top-k: %v", err)
		}
	}
	// Ordering: evaluated SA-CA-CC scores should not decrease sharply —
	// the greedy surrogate orders candidates; verify it is monotone in
	// the surrogate by recomputing on the returned order's first/last.
	first := team.Evaluate(teams[0], p).SACACC
	last := team.Evaluate(teams[len(teams)-1], p).SACACC
	if first > last+1e-9 {
		t.Errorf("first team (%v) scores worse than last (%v)", first, last)
	}
}

func TestErrors(t *testing.T) {
	g, project := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, CC)

	if _, err := d.TopK(project, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v, want ErrBadK", err)
	}
	if _, err := d.TopK(nil, 1); !errors.Is(err, ErrEmptyProject) {
		t.Errorf("empty project: %v, want ErrEmptyProject", err)
	}
	// A skill nobody holds.
	b := expertgraph.NewBuilder(1, 0)
	b.AddNode("lonely", 1, "db")
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g2b := expertgraph.NewBuilder(2, 0)
	g2b.AddNode("a", 1, "db")
	g2b.AddNode("b", 1, "ml")
	g3, err := g2b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = g2
	db3, _ := g3.SkillID("db")
	ml3, _ := g3.SkillID("ml")
	p3 := fitOrDie(t, g3, 0.5, 0.5)
	d3 := NewDiscoverer(p3, CC)
	// db and ml are held by different, disconnected nodes: no team.
	if _, err := d3.TopK([]expertgraph.SkillID{db3, ml3}, 1); !errors.Is(err, ErrNoTeam) {
		t.Errorf("disconnected holders: %v, want ErrNoTeam", err)
	}
	// An out-of-universe skill ID would panic; the unknown-skill case is
	// a skill with no holders after subgraphing, covered by ErrNoExpert
	// in discoverers over graphs whose index lost the skill.
}

func TestNoExpertError(t *testing.T) {
	b := expertgraph.NewBuilder(2, 1)
	a := b.AddNode("a", 1, "db")
	c := b.AddNode("c", 1)
	b.AddEdge(a, c, 1)
	// Intern a skill that no node holds.
	orphan := b.Skill("orphan")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := fitOrDie(t, g, 0.5, 0.5)
	d := NewDiscoverer(p, CC)
	if _, err := d.BestTeam([]expertgraph.SkillID{orphan}); !errors.Is(err, ErrNoExpert) {
		t.Errorf("orphan skill: %v, want ErrNoExpert", err)
	}
}

func TestPLLMatchesDijkstraSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, project := randomSkillGraph(rng, 60, 100, 3, 5)
	p := fitOrDie(t, g, 0.6, 0.4)
	for _, m := range []Method{CC, CACC, SACACC} {
		var weight oracle.WeightFunc
		if m != CC {
			weight = p.EdgeWeight()
		}
		dj := NewDiscoverer(p, m)
		pl := NewDiscoverer(p, m, WithOracle(oracle.BuildPLL(g, weight)))
		t1, err1 := dj.TopK(project, 3)
		t2, err2 := pl.TopK(project, 3)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%v: error mismatch %v vs %v", m, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if len(t1) != len(t2) {
			t.Fatalf("%v: team count %d vs %d", m, len(t1), len(t2))
		}
		for i := range t1 {
			s1 := team.Evaluate(t1[i], p)
			s2 := team.Evaluate(t2[i], p)
			if math.Abs(s1.SACACC-s2.SACACC) > 1e-9 {
				t.Errorf("%v: team %d score %v vs %v", m, i, s1.SACACC, s2.SACACC)
			}
		}
	}
}

func TestWithRoots(t *testing.T) {
	g, project := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	// Restrict roots to node 2 (the connector).
	d := NewDiscoverer(p, CC, WithRoots([]expertgraph.NodeID{2}))
	tm, err := d.BestTeam(project)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Root != 2 {
		t.Errorf("Root = %d, want 2", tm.Root)
	}
}

func TestMethodString(t *testing.T) {
	if CC.String() != "CC" || CACC.String() != "CA-CC" || SACACC.String() != "SA-CA-CC" {
		t.Error("method names drifted from the paper")
	}
	if Method(99).String() == "" {
		t.Error("unknown method should still stringify")
	}
}

func TestAccessors(t *testing.T) {
	g, _ := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, SACACC)
	if d.Method() != SACACC {
		t.Error("Method accessor")
	}
	if d.Params() != p {
		t.Error("Params accessor")
	}
}

// randomSkillGraph builds a connected random graph where a random
// subset of nodes holds each of nskills skills, and returns a project
// over min(want, nskills) distinct skills.
func randomSkillGraph(rng *rand.Rand, n, extra, nskills, want int) (*expertgraph.Graph, []expertgraph.SkillID) {
	b := expertgraph.NewBuilder(n, n+extra)
	skillNames := make([]string, nskills)
	for i := range skillNames {
		skillNames[i] = string(rune('a' + i))
	}
	for i := 0; i < n; i++ {
		id := b.AddNode("", float64(1+rng.Intn(20)))
		b.SetPubs(id, rng.Intn(80))
		// Each node holds each skill with probability ~0.15.
		for _, s := range skillNames {
			if rng.Float64() < 0.15 {
				b.AddSkillTo(id, s)
			}
		}
	}
	// Guarantee each skill has at least one holder.
	for _, s := range skillNames {
		b.AddSkillTo(expertgraph.NodeID(rng.Intn(n)), s)
	}
	type pair struct{ u, v expertgraph.NodeID }
	seen := make(map[pair]bool)
	add := func(u, v expertgraph.NodeID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			return
		}
		seen[pair{u, v}] = true
		b.AddEdge(u, v, 0.05+rng.Float64())
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(expertgraph.NodeID(perm[i-1]), expertgraph.NodeID(perm[i]))
	}
	for i := 0; i < extra; i++ {
		add(expertgraph.NodeID(rng.Intn(n)), expertgraph.NodeID(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	if want > nskills {
		want = nskills
	}
	project := make([]expertgraph.SkillID, want)
	for i := 0; i < want; i++ {
		s, _ := g.SkillID(skillNames[i])
		project[i] = s
	}
	return g, project
}

func TestAllReturnedTeamsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g, project := randomSkillGraph(rng, 40, 60, 4, 4)
		p := fitOrDie(t, g, 0.6, 0.6)
		for _, m := range []Method{CC, CACC, SACACC} {
			d := NewDiscoverer(p, m)
			teams, err := d.TopK(project, 5)
			if errors.Is(err, ErrNoTeam) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			for _, tm := range teams {
				if err := tm.Validate(g, project); err != nil {
					t.Errorf("trial %d %v: invalid team: %v", trial, m, err)
				}
			}
		}
	}
}

// TestGreedySurrogateUpperBound verifies the documented relationship
// between the greedy surrogate and the true objective: the surrogate
// sums per-holder path costs, so for SA-CA-CC it upper-bounds (up to
// the transform's double-count factor 2) the evaluated tree objective.
// Here we only check that greedy teams never beat the surrogate by an
// unreasonable margin — a regression guard on the reconstruction.
func TestGreedyReconstructionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g, project := randomSkillGraph(rng, 50, 80, 4, 4)
	p := fitOrDie(t, g, 0.6, 0.6)
	d := NewDiscoverer(p, SACACC)
	teams, err := d.TopK(project, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range teams {
		s := team.Evaluate(tm, p)
		if math.IsNaN(s.SACACC) || s.SACACC < 0 {
			t.Errorf("degenerate evaluated score: %+v", s)
		}
	}
}
