package authteam

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"authteam/internal/team"
	"authteam/internal/transform"
	"authteam/internal/workload"
)

// smallNetwork builds a hand-checkable network: two database experts
// (one junior, one authoritative), a networks expert, and a
// high-authority potential connector.
func smallNetwork(t *testing.T) *Graph {
	t.Helper()
	b := NewGraphBuilder(5, 6)
	dbJunior := b.AddNode("db-junior", 2, "databases")
	dbSenior := b.AddNode("db-senior", 30, "databases")
	net := b.AddNode("net-expert", 4, "networks")
	mentor := b.AddNode("mentor", 50)
	b.AddNode("isolated", 1, "quantum")
	b.AddEdge(dbJunior, net, 0.2)
	b.AddEdge(dbSenior, mentor, 0.3)
	b.AddEdge(mentor, net, 0.3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQuickstartFlow(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := client.BestTeam(SACACC, []string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	score := client.Evaluate(tm)
	if math.IsNaN(score.SACACC) || score.SACACC < 0 {
		t.Errorf("bad score: %+v", score)
	}
	profile := client.Profile(tm)
	if profile.Size != tm.Size() {
		t.Error("profile size mismatch")
	}
}

func TestMethodsDiffer(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ccTeam, err := client.BestTeam(CC, []string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	saTeam, err := client.BestTeam(SACACC, []string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	// CC takes the cheap junior pair (cost 0.2); SA-CA-CC should pay
	// more communication for the senior + mentor route.
	ccS := client.Evaluate(ccTeam)
	saS := client.Evaluate(saTeam)
	if saS.SACACC > ccS.SACACC {
		t.Errorf("SA-CA-CC team (%v) scores worse than CC team (%v) on SA-CA-CC",
			saS.SACACC, ccS.SACACC)
	}
	if ccS.CC > saS.CC {
		t.Errorf("CC team should have the lower communication cost")
	}
}

func TestIndexedClientMatchesPlain(t *testing.T) {
	g := smallNetwork(t)
	plain, err := New(g, Options{Gamma: 0.5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := New(g, Options{Gamma: 0.5, Lambda: 0.5, BuildIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{CC, CACC, SACACC} {
		t1, err1 := plain.BestTeam(m, []string{"databases", "networks"})
		t2, err2 := indexed.BestTeam(m, []string{"databases", "networks"})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%v: errs %v vs %v", m, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if plain.Evaluate(t1).SACACC != indexed.Evaluate(t2).SACACC {
			t.Errorf("%v: indexed and plain clients disagree", m)
		}
	}
}

func TestUnknownSkill(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.BestTeam(CC, []string{"alchemy"}); !errors.Is(err, ErrUnknownSkill) {
		t.Errorf("err = %v, want ErrUnknownSkill", err)
	}
}

func TestNoTeamAcrossComponents(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.5, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// "quantum" lives on the isolated node; pairing it with databases
	// cannot be covered by a connected team.
	if _, err := client.BestTeam(CC, []string{"databases", "quantum"}); !errors.Is(err, ErrNoTeam) {
		t.Errorf("err = %v, want ErrNoTeam", err)
	}
}

func TestTopKRandomExactPareto(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	skills := []string{"databases", "networks"}

	teams, err := client.TopK(SACACC, skills, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) == 0 {
		t.Fatal("TopK empty")
	}

	rnd, err := client.Random(skills, 200, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := client.Exact(skills, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if client.Evaluate(exact).SACACC > client.Evaluate(rnd).SACACC+1e-9 {
		t.Error("Exact worse than Random")
	}
	if client.Evaluate(exact).SACACC > client.Evaluate(teams[0]).SACACC+1e-9 {
		t.Error("Exact worse than greedy")
	}

	front, err := client.Pareto(skills, ParetoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
}

func TestRarestFirstFacade(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := client.RarestFirst([]string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	project, err := client.ResolveSkills([]string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(g, project); err != nil {
		t.Fatalf("invalid RarestFirst team: %v", err)
	}
}

func TestReplaceMemberFacade(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := client.BestTeam(SACACC, []string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	leaver := tm.Holders()[0]
	reps, err := client.ReplaceMember(tm, leaver, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("no replacements")
	}
	for _, u := range reps[0].Team.Nodes {
		if u == leaver {
			t.Error("leaver still present after replacement")
		}
	}
}

func TestRandomNilRNG(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Random([]string{"databases"}, 50, nil); err != nil {
		t.Fatalf("nil rng should default: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.3, Lambda: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if client.Gamma() != 0.3 || client.Lambda() != 0.7 {
		t.Error("parameter accessors")
	}
	if client.Graph() != g {
		t.Error("graph accessor")
	}
}

func TestBadParams(t *testing.T) {
	g := smallNetwork(t)
	if _, err := New(g, Options{Gamma: 1.5}); err == nil {
		t.Error("gamma out of range should fail")
	}
}

func TestTopKParallelFacade(t *testing.T) {
	corpus := SynthesizeCorpus(SynthConfig{Seed: 4, Authors: 400})
	g, err := BuildCorpusGraph(corpus, CorpusGraphOptions{LargestComponent: true})
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6, BuildIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find two skills that coexist.
	var skills []string
	for s := 0; s < g.NumSkills() && len(skills) < 3; s++ {
		if len(g.ExpertsWithSkill(SkillID(s))) >= 2 {
			skills = append(skills, g.SkillName(SkillID(s)))
		}
	}
	if len(skills) < 3 {
		t.Skip("not enough skills at this scale")
	}
	seq, err1 := client.TopK(SACACC, skills, 3)
	par, err2 := client.TopKParallel(SACACC, skills, 3, 4)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: %v vs %v", err1, err2)
	}
	if err1 != nil {
		t.Skip("project infeasible at this scale")
	}
	if len(seq) != len(par) {
		t.Fatalf("team counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if client.Evaluate(seq[i]).SACACC != client.Evaluate(par[i]).SACACC {
			t.Errorf("team %d differs between sequential and parallel", i)
		}
	}
}

// TestClientConcurrentUse exercises the documented concurrency safety
// of an indexed client.
func TestClientConcurrentUse(t *testing.T) {
	g := smallNetwork(t)
	client, err := New(g, Options{Gamma: 0.6, Lambda: 0.6, BuildIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := client.BestTeam(SACACC, []string{"databases", "networks"}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorpusPipeline(t *testing.T) {
	corpus := SynthesizeCorpus(SynthConfig{Seed: 2, Authors: 300})
	g, err := BuildCorpusGraph(corpus, CorpusGraphOptions{LargestComponent: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumSkills() == 0 {
		t.Fatalf("degenerate corpus graph: %v", g)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Error("round-trip lost data")
	}
}

// TestIndexedClientAfterBoundsMoveMatchesFreshClient pins the indexed
// client's serving policy after a write its covers cannot absorb: an
// authority update to a new extreme moves the normalization bounds,
// every G' weight changes, and the covers are rebuilt in the
// background. TopK, Random and Exact must equal those of a fresh
// indexed client over the same graph both right after the write (per-
// root Dijkstra while the rebuild runs) and once it has landed.
func TestIndexedClientAfterBoundsMoveMatchesFreshClient(t *testing.T) {
	corpus := SynthesizeCorpus(SynthConfig{Seed: 1, Authors: 200})
	g, err := BuildCorpusGraph(corpus, CorpusGraphOptions{LargestComponent: true})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Gamma: 0.6, Lambda: 0.6, BuildIndex: true}
	c, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gen, err := workload.NewGenerator(g, 5, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var projects [][]string
	for i := 0; i < 4; i++ {
		ids, err := gen.Project(2)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ids))
		for j, id := range ids {
			names[j] = g.SkillName(id)
		}
		projects = append(projects, names)
	}

	lo, hi := c.View().InvAuthorityBounds()
	auth := 1000.0
	if err := c.UpdateExpert(0, &auth); err != nil {
		t.Fatal(err)
	}
	if lo2, hi2 := c.View().InvAuthorityBounds(); lo2 == lo && hi2 == hi {
		t.Fatal("the authority update left the normalization bounds in place")
	}
	rebuilds := c.node.IndexStats().FullRebuilds

	matchFresh := func(stage string) {
		t.Helper()
		fresh, err := New(c.Graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		for _, skills := range projects {
			for _, m := range []Method{CC, CACC, SACACC} {
				got, err1 := c.TopK(m, skills, 3)
				want, err2 := fresh.TopK(m, skills, 3)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %v TopK%v = %v (%v), fresh client %v (%v)", stage, m, skills, got, err1, want, err2)
				}
			}
			got, err1 := c.Random(skills, 300, rand.New(rand.NewSource(9)))
			want, err2 := fresh.Random(skills, 300, rand.New(rand.NewSource(9)))
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Random%v = %v (%v), fresh client %v (%v)", stage, skills, got, err1, want, err2)
			}
			got, err1 = c.Exact(skills, ExactOptions{})
			want, err2 = fresh.Exact(skills, ExactOptions{})
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Exact%v = %v (%v), fresh client %v (%v)", stage, skills, got, err1, want, err2)
			}
		}
	}
	matchFresh("right after the write")
	deadline := time.Now().Add(10 * time.Second)
	for c.node.IndexStats().PendingRebuild {
		if time.Now().After(deadline) {
			t.Fatal("background rebuild still pending after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	// Authority leaves raw weights alone, so only the γ cover rebuilds.
	if st := c.node.IndexStats(); st.FullRebuilds != rebuilds+1 {
		t.Fatalf("index stats %+v: want the γ cover rebuilt, not repaired", st)
	}
	matchFresh("after the rebuild")
}

// TestNoNormalizeReachesFit pins that Options.NoNormalize reaches the
// serving core's fit: the client scores a team exactly as an
// unnormalized fit of its graph does, and differently from a
// normalizing client.
func TestNoNormalizeReachesFit(t *testing.T) {
	g := smallNetwork(t)
	raw, err := New(g, Options{Gamma: 0.6, Lambda: 0.6, NoNormalize: true, BuildIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	norm, err := New(g, Options{Gamma: 0.6, Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	defer norm.Close()
	tm, err := raw.BestTeam(SACACC, []string{"databases", "networks"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := transform.Fit(g, 0.6, 0.6, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := raw.Evaluate(tm), team.Evaluate(tm, p); got != want {
		t.Fatalf("NoNormalize client scores %+v, unnormalized fit %+v", got, want)
	}
	if raw.Evaluate(tm) == norm.Evaluate(tm) {
		t.Fatal("NoNormalize changed no score")
	}
}
