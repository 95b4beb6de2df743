package live

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/oracle"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// randomBase builds a connected random expert network with continuous
// edge weights (exact float ties between distinct paths have measure
// zero, so shortest-path tie-breaking cannot make the overlay and the
// materialized graph diverge).
func randomBase(t *testing.T, rng *rand.Rand, n int) *expertgraph.Graph {
	t.Helper()
	b := expertgraph.NewBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		skills := []string{fmt.Sprintf("s%d", rng.Intn(12))}
		if rng.Intn(2) == 0 {
			skills = append(skills, fmt.Sprintf("s%d", rng.Intn(12)))
		}
		b.AddNode(fmt.Sprintf("e%d", i), float64(1+rng.Intn(50)), skills...)
	}
	for i := 1; i < n; i++ { // random spanning tree keeps it connected
		b.AddEdge(expertgraph.NodeID(rng.Intn(i)), expertgraph.NodeID(i), 0.1+0.8*rng.Float64())
	}
	for tries := 0; tries < 2*n; tries++ {
		u, v := expertgraph.NodeID(rng.Intn(n)), expertgraph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v, 0.1+0.8*rng.Float64())
	}
	g, err := b.Build()
	if err != nil {
		// The duplicate edges the loop above can produce are rejected by
		// Build; rebuild without the extras is overkill — just retry the
		// tree-only graph.
		b2 := expertgraph.NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b2.AddNode(fmt.Sprintf("e%d", i), float64(1+rng.Intn(50)), fmt.Sprintf("s%d", rng.Intn(12)))
		}
		for i := 1; i < n; i++ {
			b2.AddEdge(expertgraph.NodeID(rng.Intn(i)), expertgraph.NodeID(i), 0.1+0.8*rng.Float64())
		}
		g, err = b2.Build()
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// randomEdge picks a uniformly-ish random existing edge of the view
// (ok=false when the view has none).
func randomEdge(rng *rand.Rand, g expertgraph.GraphView) (expertgraph.NodeID, expertgraph.NodeID, bool) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0, false
	}
	start := rng.Intn(n)
	for off := 0; off < n; off++ {
		u := expertgraph.NodeID((start + off) % n)
		var pick expertgraph.NodeID
		seen := 0
		g.Neighbors(u, func(v expertgraph.NodeID, _ float64) bool {
			seen++
			if rng.Intn(seen) == 0 {
				pick = v
			}
			return true
		})
		if seen > 0 {
			return u, pick, true
		}
	}
	return 0, 0, false
}

// mutateRandomly applies count random mutations across every kind —
// inserts, removals, re-weights, authority and skill updates
// (rejections are fine — they advance nothing on either side).
func mutateRandomly(t *testing.T, st *Store, rng *rand.Rand, count int) {
	t.Helper()
	mutateRandomlyThen(t, st, rng, count, func() {})
}

// mutateRandomlyThen is mutateRandomly calling after once each
// mutation call returns, committed or rejected.
func mutateRandomlyThen(t *testing.T, st *Store, rng *rand.Rand, count int, after func()) {
	t.Helper()
	for i := 0; i < count; i++ {
		n := st.Snapshot().NumNodes()
		switch rng.Intn(12) {
		case 0, 1: // add expert, sometimes with a brand-new skill
			skills := []string{fmt.Sprintf("s%d", rng.Intn(12))}
			if rng.Intn(3) == 0 {
				skills = append(skills, fmt.Sprintf("x%d", rng.Intn(6)))
			}
			id, _, err := st.AddExpert(fmt.Sprintf("new%d", i), float64(rng.Intn(60)), skills)
			if err != nil {
				t.Fatalf("add expert: %v", err)
			}
			after()
			// Wire the newcomer in so every skill stays reachable
			// (the anchor may be tombstoned — a rejection is fine).
			if _, err := st.AddCollaboration(id, expertgraph.NodeID(rng.Intn(n)), 0.05+0.9*rng.Float64()); err != nil && !errors.Is(err, ErrRemovedNode) {
				t.Fatalf("connect new expert: %v", err)
			}
		case 2: // authority update, occasionally extreme (exercises the bound rescan)
			auth := float64(1 + rng.Intn(50))
			if rng.Intn(3) == 0 {
				auth = float64(200 + rng.Intn(100))
			}
			_, _ = st.UpdateExpert(expertgraph.NodeID(rng.Intn(n)), &auth, nil)
		case 3: // skill grant, sometimes a new skill name
			sk := fmt.Sprintf("s%d", rng.Intn(12))
			if rng.Intn(4) == 0 {
				sk = fmt.Sprintf("x%d", rng.Intn(6))
			}
			_, _ = st.UpdateExpert(expertgraph.NodeID(rng.Intn(n)), nil, []string{sk})
		case 4, 5: // edge re-weight, occasionally extreme (bound rescan)
			if u, v, ok := randomEdge(rng, st.Snapshot().View()); ok {
				w := 0.05 + 0.9*rng.Float64()
				if rng.Intn(4) == 0 {
					w = 2 + rng.Float64()
				}
				_, _ = st.UpdateCollaboration(u, v, w)
			}
		case 6, 7: // edge removal
			if u, v, ok := randomEdge(rng, st.Snapshot().View()); ok {
				_, _ = st.RemoveCollaboration(u, v)
			}
		case 8: // node removal (tombstone; rejections on re-removal are fine)
			if rng.Intn(2) == 0 {
				_, _ = st.RemoveExpert(expertgraph.NodeID(rng.Intn(n)))
			}
		default: // edge insertion (duplicates/self-loops rejected harmlessly)
			u, v := expertgraph.NodeID(rng.Intn(n)), expertgraph.NodeID(rng.Intn(n))
			_, _ = st.AddCollaboration(u, v, 0.05+0.9*rng.Float64())
		}
		after()
	}
}

// checkViewStructure verifies every GraphView read agrees between the
// overlay and the materialized graph.
func checkViewStructure(t *testing.T, gv expertgraph.GraphView, gm *expertgraph.Graph) {
	t.Helper()
	if gv.NumNodes() != gm.NumNodes() || gv.NumEdges() != gm.NumEdges() || gv.NumSkills() != gm.NumSkills() {
		t.Fatalf("sizes: view (%d,%d,%d) vs graph (%d,%d,%d)",
			gv.NumNodes(), gv.NumEdges(), gv.NumSkills(),
			gm.NumNodes(), gm.NumEdges(), gm.NumSkills())
	}
	if l1, h1 := gv.EdgeWeightBounds(); true {
		if l2, h2 := gm.EdgeWeightBounds(); l1 != l2 || h1 != h2 {
			t.Fatalf("edge bounds: view (%v,%v) vs graph (%v,%v)", l1, h1, l2, h2)
		}
	}
	if l1, h1 := gv.InvAuthorityBounds(); true {
		if l2, h2 := gm.InvAuthorityBounds(); l1 != l2 || h1 != h2 {
			t.Fatalf("inv-authority bounds: view (%v,%v) vs graph (%v,%v)", l1, h1, l2, h2)
		}
	}
	for u := expertgraph.NodeID(0); int(u) < gm.NumNodes(); u++ {
		if gv.Name(u) != gm.Name(u) || gv.Authority(u) != gm.Authority(u) ||
			gv.InvAuthority(u) != gm.InvAuthority(u) || gv.Pubs(u) != gm.Pubs(u) {
			t.Fatalf("node %d records differ", u)
		}
		if gv.ValidNode(u) != gm.ValidNode(u) {
			t.Fatalf("node %d validity: view %v vs graph %v", u, gv.ValidNode(u), gm.ValidNode(u))
		}
		if gv.Degree(u) != gm.Degree(u) {
			t.Fatalf("node %d degree: view %d vs graph %d", u, gv.Degree(u), gm.Degree(u))
		}
		viewAdj := map[expertgraph.NodeID]float64{}
		gv.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			viewAdj[v] = w
			return true
		})
		graphAdj := map[expertgraph.NodeID]float64{}
		gm.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			graphAdj[v] = w
			return true
		})
		if !reflect.DeepEqual(viewAdj, graphAdj) {
			t.Fatalf("node %d adjacency differs: view %v vs graph %v", u, viewAdj, graphAdj)
		}
		vs := append([]expertgraph.SkillID(nil), gv.Skills(u)...)
		ms := append([]expertgraph.SkillID(nil), gm.Skills(u)...)
		if !reflect.DeepEqual(vs, ms) {
			t.Fatalf("node %d skills differ: view %v vs graph %v", u, vs, ms)
		}
	}
	for s := expertgraph.SkillID(0); int(s) < gm.NumSkills(); s++ {
		if gv.SkillName(s) != gm.SkillName(s) {
			t.Fatalf("skill %d name differs", s)
		}
		if id, ok := gv.SkillID(gm.SkillName(s)); !ok || id != s {
			t.Fatalf("skill %q resolves to (%d,%v) on the view, want %d", gm.SkillName(s), id, ok, s)
		}
		if !reflect.DeepEqual(
			append([]expertgraph.NodeID(nil), gv.ExpertsWithSkill(s)...),
			append([]expertgraph.NodeID(nil), gm.ExpertsWithSkill(s)...)) {
			t.Fatalf("holders of %q differ", gm.SkillName(s))
		}
	}
}

// assertViewsIdentical compares two GraphViews over the full read
// surface: sizes, bounds, every node record, adjacency set, skill
// table and holder list (order-exact — the contract sorts holders).
// It is the chained-vs-refolded differential: a layer extending the
// previous epoch's view must be observationally identical to one
// folded from the base in a single pass.
func assertViewsIdentical(t *testing.T, a, b expertgraph.GraphView) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.NumSkills() != b.NumSkills() {
		t.Fatalf("sizes: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumNodes(), a.NumEdges(), a.NumSkills(),
			b.NumNodes(), b.NumEdges(), b.NumSkills())
	}
	al, ah := a.EdgeWeightBounds()
	bl, bh := b.EdgeWeightBounds()
	if al != bl || ah != bh {
		t.Fatalf("edge bounds: (%v,%v) vs (%v,%v)", al, ah, bl, bh)
	}
	ail, aih := a.InvAuthorityBounds()
	bil, bih := b.InvAuthorityBounds()
	if ail != bil || aih != bih {
		t.Fatalf("inv-authority bounds: (%v,%v) vs (%v,%v)", ail, aih, bil, bih)
	}
	for u := expertgraph.NodeID(0); int(u) < a.NumNodes(); u++ {
		if a.Name(u) != b.Name(u) || a.Authority(u) != b.Authority(u) ||
			a.InvAuthority(u) != b.InvAuthority(u) || a.Pubs(u) != b.Pubs(u) ||
			a.ValidNode(u) != b.ValidNode(u) || a.Degree(u) != b.Degree(u) {
			t.Fatalf("node %d records differ", u)
		}
		adjA := map[expertgraph.NodeID]float64{}
		a.Neighbors(u, func(v expertgraph.NodeID, w float64) bool { adjA[v] = w; return true })
		adjB := map[expertgraph.NodeID]float64{}
		b.Neighbors(u, func(v expertgraph.NodeID, w float64) bool { adjB[v] = w; return true })
		if !reflect.DeepEqual(adjA, adjB) {
			t.Fatalf("node %d adjacency: %v vs %v", u, adjA, adjB)
		}
		if !reflect.DeepEqual(
			append([]expertgraph.SkillID(nil), a.Skills(u)...),
			append([]expertgraph.SkillID(nil), b.Skills(u)...)) {
			t.Fatalf("node %d skills differ", u)
		}
	}
	for s := expertgraph.SkillID(0); int(s) < a.NumSkills(); s++ {
		if a.SkillName(s) != b.SkillName(s) {
			t.Fatalf("skill %d name differs", s)
		}
		if id, ok := b.SkillID(a.SkillName(s)); !ok || id != s {
			t.Fatalf("skill %q resolves to (%d,%v), want %d", a.SkillName(s), id, ok, s)
		}
		if !reflect.DeepEqual(
			append([]expertgraph.NodeID(nil), a.ExpertsWithSkill(s)...),
			append([]expertgraph.NodeID(nil), b.ExpertsWithSkill(s)...)) {
			t.Fatalf("holders of %q differ (order matters)", a.SkillName(s))
		}
	}
}

// feasibleProject picks project skills that have holders on g.
func feasibleProject(rng *rand.Rand, g expertgraph.GraphView, want int) []expertgraph.SkillID {
	var have []expertgraph.SkillID
	for s := 0; s < g.NumSkills(); s++ {
		if len(g.ExpertsWithSkill(expertgraph.SkillID(s))) > 0 {
			have = append(have, expertgraph.SkillID(s))
		}
	}
	rng.Shuffle(len(have), func(i, j int) { have[i], have[j] = have[j], have[i] })
	if len(have) > want {
		have = have[:want]
	}
	return have
}

// TestOverlayDifferential is the acceptance test of the overlay read
// path: across a randomized mutation stream, every core method must
// return exactly the same teams on the zero-copy OverlayView as on the
// materialized graph — and the overlay side must perform zero
// materializations. Every round ends with a Compact, so from round two
// onward the overlays are patched over a *re-based* base graph: the
// results must stay byte-identical across re-base boundaries.
//
// The stream reads the view after every mutation, so the committer
// presets every epoch's view: a chain root over the base after each
// Compact, then one layer per commit, refolded over the base at the
// depth guard. Each preset view must equal a one-pass fold of the
// resident log over the base, and the chain's depth and refold count
// must follow that policy exactly.
func TestOverlayDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := randomBase(t, rng, 60)
	st, err := Open(base, Config{JournalPath: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// discover records each method's outcome — the teams, or the error
	// it failed with. A mutation stream with removals can legitimately
	// make a project infeasible mid-run; the differential requirement
	// is then that the overlay fails *identically* to the materialized
	// graph, not that both succeed.
	discover := func(g expertgraph.GraphView, project []expertgraph.SkillID) map[string]any {
		out := map[string]any{}
		record := func(method string, teams []*team.Team, err error) {
			if err != nil {
				out[method] = fmt.Sprintf("error: %v", err)
				return
			}
			out[method] = teams
		}
		for _, m := range []core.Method{core.CC, core.CACC, core.SACACC} {
			p, err := transform.Fit(g, 0.6, 0.6, transform.Options{Normalize: true})
			if err != nil {
				t.Fatal(err)
			}
			teams, err := core.NewDiscoverer(p, m).TopK(project, 3)
			record(m.String(), teams, err)
			// One PLL-backed run per checkpoint exercises index
			// construction over the overlay too.
			if m == core.SACACC {
				teams, err := core.NewDiscoverer(p, m, core.WithOracle(oracle.BuildPLL(g, p.EdgeWeight()))).TopK(project, 3)
				record("sa-ca-cc-pll", teams, err)
			}
		}
		front, err := core.ParetoFront(g, project, core.ParetoOptions{})
		if err != nil {
			out["pareto"] = fmt.Sprintf("error: %v", err)
		} else {
			var teams []*team.Team
			for _, f := range front {
				teams = append(teams, f.Team)
			}
			out["pareto"] = teams
		}
		p, err := transform.Fit(g, 0.6, 0.6, transform.Options{Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := core.Exact(p, project[:min(len(project), 2)], core.ExactOptions{MaxCandidatesPerSkill: 4})
		record("exact", []*team.Team{ex}, err)
		return out
	}

	// Commit c of a round (counted from its Compact) builds the chain
	// root at c = 1 and extends by one layer per commit after that,
	// until a layer at the depth guard makes the next commit refold.
	const period = maxChainDepth + 1
	for round := 0; round < 4; round++ {
		commits0, refolds0 := st.Commits(), st.Refolds()
		mutateRandomlyThen(t, st, rng, 30, func() {
			sn := st.Snapshot()
			c := st.Commits() - commits0
			if c == 0 {
				return // still at the base epoch: the view is the base graph
			}
			gv := sn.View()
			if d, want := st.ChainDepth(), int((c-1)%period); d != want {
				t.Fatalf("round %d commit %d: chain depth %d, want %d", round, c, d, want)
			}
			if r, want := st.Refolds()-refolds0, (c-1)/period; r != want {
				t.Fatalf("round %d commit %d: %d refolds, want %d", round, c, r, want)
			}
			assertViewsIdentical(t, gv, newOverlay(sn.base, sn.log[:sn.epoch-sn.baseEpoch], sn.nodes, sn.edges))
		})
		snap := st.Snapshot()
		gv := snap.View()

		before := st.Materializations()
		project := feasibleProject(rand.New(rand.NewSource(int64(round))), gv, 3)
		viewTeams := discover(gv, project)
		checkStructureLater := st.Materializations()
		if checkStructureLater != before {
			t.Fatalf("round %d: view-side discovery materialized %d graphs, want 0",
				round, checkStructureLater-before)
		}

		gm, err := snap.Graph()
		if err != nil {
			t.Fatal(err)
		}
		checkViewStructure(t, gv, gm)
		graphTeams := discover(gm, project)

		for method, want := range graphTeams {
			got := viewTeams[method]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d method %s: overlay teams differ from materialized teams\noverlay: %+v\nmaterialized: %+v",
					round, method, got, want)
			}
		}
		if st.Materializations() != before+1 {
			t.Fatalf("round %d: %d materializations, want exactly the reference one",
				round, st.Materializations()-before)
		}

		// Fold and re-base: the next round's delta patches over this
		// epoch's materialized graph as the new in-memory base. The fold
		// reuses this snapshot's memoized materialization, so the
		// counter stays exact.
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if st.BaseEpoch() != snap.Epoch() || st.LogLen() != 0 {
			t.Fatalf("round %d: re-base at %d/%d, want %d/0",
				round, st.BaseEpoch(), st.LogLen(), snap.Epoch())
		}
	}
	if st.Refolds() < 2 || st.Compactions() != 4 {
		t.Fatalf("stream crossed %d refolds and %d compactions, want ≥ 2 and 4", st.Refolds(), st.Compactions())
	}
}

// TestOverlayBoundsCovering pins the covering-bounds contract: an
// authority update that retires the current inverse-authority extreme
// leaves the bounds where they are, and the materialized graph widens
// to answer the identical bounds. Its second half pins the seeding of
// an emptied population: a fold that retired every edge and every live
// expert leaves a base reporting the old bounds, yet the next epoch's
// view and materialized graph both start those populations afresh.
func TestOverlayBoundsCovering(t *testing.T) {
	b := expertgraph.NewBuilder(3, 2)
	b.AddNode("low", 1, "a")   // inv 1.0 — the max extreme
	b.AddNode("mid", 4, "b")   // inv 0.25
	b.AddNode("high", 10, "c") // inv 0.1 — the min extreme
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	auth := 5.0 // inv 0.2: the old max (1.0) retires
	if _, err := st.UpdateExpert(0, &auth, nil); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	gv := snap.View()
	gm, err := snap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	vl, vh := gv.InvAuthorityBounds()
	ml, mh := gm.InvAuthorityBounds()
	if vl != ml || vh != mh {
		t.Fatalf("bounds after extreme retirement: view (%v,%v) vs graph (%v,%v)", vl, vh, ml, mh)
	}
	if vl != 0.1 || vh != 1.0 {
		t.Fatalf("covering bounds = (%v,%v), want (0.1,1.0) — retirement must not shrink them", vl, vh)
	}

	// Remove the only edge (w=0.5) and both experts, then fold: the new
	// base has no edges and no live experts but reports the covering
	// bounds (0.5,0.5) and (0.25,0.5) its fold carried.
	b = expertgraph.NewBuilder(2, 1)
	b.AddNode("a", 2, "a") // inv 0.5
	b.AddNode("b", 4, "b") // inv 0.25
	b.AddEdge(0, 1, 0.5)
	if g, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, g, Config{JournalPath: filepath.Join(t.TempDir(), "wal")})
	if _, err := st2.RemoveCollaboration(0, 1); err != nil {
		t.Fatal(err)
	}
	for u := expertgraph.NodeID(0); u < 2; u++ {
		if _, err := st2.RemoveExpert(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if l, h := st2.Snapshot().View().EdgeWeightBounds(); l != 0.5 || h != 0.5 {
		t.Fatalf("folded edgeless base reports edge bounds (%v,%v), want (0.5,0.5)", l, h)
	}
	if _, _, err := st2.AddExpert("c", 8, []string{"c"}); err != nil { // inv 0.125
		t.Fatal(err)
	}
	snap = st2.Snapshot()
	gv = snap.View()
	if gm, err = snap.Graph(); err != nil {
		t.Fatal(err)
	}
	checkViewStructure(t, gv, gm)
	if l, h := gv.EdgeWeightBounds(); l != 0 || h != 0 {
		t.Fatalf("edge bounds after the emptied fold (%v,%v), want (0,0)", l, h)
	}
	if l, h := gv.InvAuthorityBounds(); l != 0.125 || h != 0.125 {
		t.Fatalf("inv-authority bounds after the emptied fold (%v,%v), want (0.125,0.125)", l, h)
	}
}

// TestSnapshotAtCounts checks that a reconstructed historical snapshot
// reports exact node and edge counts at epochs spread over a log of
// several hundred mutations, against a brute-force count of the log.
func TestSnapshotAtCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomBase(t, rng, 20)
	st, err := Open(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const span = 256
	const total = 3*span + 57
	mutateRandomly(t, st, rng, total+400) // rejections don't advance epochs; overshoot
	top := st.Epoch()
	if top < total {
		t.Fatalf("only %d mutations applied, need ≥ %d", top, total)
	}

	// Reference counts by brute force over the full log.
	cur := st.Snapshot()
	for _, epoch := range []uint64{0, 1, span - 1, span, span + 1, 2*span + 17, top - 1, top} {
		sn, ok := st.SnapshotAt(epoch)
		if !ok {
			t.Fatalf("SnapshotAt(%d) refused (top %d)", epoch, top)
		}
		nodes, edges := base.NumNodes(), base.NumEdges()
		muts, _ := cur.MutationsSince(0)
		for _, m := range muts[:epoch] {
			switch m.Op {
			case OpAddNode:
				nodes++
			case OpAddEdge:
				edges++
			case OpRemoveEdge:
				edges--
			case OpRemoveNode:
				edges -= len(m.Edges)
			}
		}
		if sn.NumNodes() != nodes || sn.NumEdges() != edges {
			t.Fatalf("SnapshotAt(%d) = (%d,%d), want (%d,%d)", epoch, sn.NumNodes(), sn.NumEdges(), nodes, edges)
		}
	}
}
