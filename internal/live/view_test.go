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
// surface: sizes, bounds *and* tightness flags, every node record,
// adjacency set, skill table and holder list (order-exact — the
// contract sorts holders). It is the chained-vs-refolded differential:
// a view derived by patching a memoized parent must be observationally
// identical to one folded from the base in a single pass.
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
	awt, ait := a.(interface{ BoundsTight() (bool, bool) }).BoundsTight()
	bwt, bit := b.(interface{ BoundsTight() (bool, bool) }).BoundsTight()
	if awt != bwt || ait != bit {
		t.Fatalf("tightness flags: (%v,%v) vs (%v,%v)", awt, ait, bwt, bit)
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
				teams, err := core.NewDiscoverer(p, m, core.WithPLL()).TopK(project, 3)
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

	sawChain := false
	for round := 0; round < 4; round++ {
		mutateRandomly(t, st, rng, 30)
		snap := st.Snapshot()
		gv := snap.View()

		// Chained-vs-refolded differential: apply one more mutation on
		// top of the just-built view, so the committer derives the next
		// epoch's view by patching gv (or resets the chain at the refold
		// guard). Either way it must be observationally identical to a
		// one-pass fold of the same log over the same base.
		var anchor expertgraph.NodeID
		for int(anchor) < snap.NumNodes() && !gv.ValidNode(anchor) {
			anchor++
		}
		refoldsBefore := st.Refolds()
		auth := float64(5 + round)
		if _, err := st.UpdateExpert(anchor, &auth, nil); err != nil {
			t.Fatal(err)
		}
		chained := st.Snapshot()
		cgv := chained.View()
		if d := st.ChainDepth(); d > 0 {
			sawChain = true
		} else if st.Refolds() == refoldsBefore && chained.epoch > chained.baseEpoch {
			t.Fatalf("round %d: view after mutation neither chained nor refolded", round)
		}
		refold := newOverlay(chained.base, chained.log[:chained.epoch-chained.baseEpoch],
			chained.nodes, chained.edges)
		assertViewsIdentical(t, cgv, refold)
		snap = chained
		gv = cgv

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
	if !sawChain {
		t.Fatal("chained views never engaged across the mutation stream")
	}
}

// TestOverlayBoundsCovering pins the covering-bounds contract: an
// authority update that retires the current inverse-authority extreme
// leaves the bounds where they are (still covering, provably no longer
// tight), the materialized graph widens to answer the identical
// bounds, and BoundsTight reports the looseness honestly.
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
	wTight, invTight := gv.(interface{ BoundsTight() (bool, bool) }).BoundsTight()
	if !wTight {
		t.Fatal("edge-weight bounds reported loose; no weight was touched")
	}
	if invTight {
		t.Fatal("inverse-authority bounds reported tight; the sole max holder retired")
	}

	// A second expert re-occupying the old extreme makes the bound
	// provably tight again.
	auth2 := 1.0 // inv 1.0 lands exactly on the covering max
	if _, err := st.UpdateExpert(1, &auth2, nil); err != nil {
		t.Fatal(err)
	}
	gv2 := st.Snapshot().View()
	if _, invTight2 := gv2.(interface{ BoundsTight() (bool, bool) }).BoundsTight(); !invTight2 {
		t.Fatal("inverse-authority bounds still reported loose after a value re-occupied the extreme")
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
