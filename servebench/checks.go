package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/server"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// checker validates discover replies against the base graph plus the
// experts the workload's writers added.
type checker struct {
	c     *corpus
	mu    sync.RWMutex
	added map[string]map[string]bool // added expert → skills
}

func newChecker(c *corpus) *checker {
	return &checker{c: c, added: make(map[string]map[string]bool)}
}

// addExpert registers an expert before its add is sent, so a reply
// naming it can be checked.
func (ck *checker) addExpert(name string, skills []string) {
	set := make(map[string]bool, len(skills))
	for _, s := range skills {
		set[s] = true
	}
	ck.mu.Lock()
	ck.added[name] = set
	ck.mu.Unlock()
}

func (ck *checker) holds(member, skill string) bool {
	if u, ok := ck.c.byName[member]; ok {
		s, ok := ck.c.g.SkillID(skill)
		return ok && ck.c.g.HasSkill(u, s)
	}
	ck.mu.RLock()
	defer ck.mu.RUnlock()
	return ck.added[member][skill]
}

// reply checks one discover reply: it answers the request, every team
// covers each requested skill with a member who holds it, every score
// is finite, and its epoch is at least minEpoch (the last write the
// client saw acknowledged before sending).
func (ck *checker) reply(r discoverReq, resp *server.DiscoverResponse, minEpoch uint64) error {
	if resp.Method != r.Method || resp.K != r.K {
		return fmt.Errorf("reply for %s k=%d, asked %s k=%d", resp.Method, resp.K, r.Method, r.K)
	}
	if resp.Epoch < minEpoch {
		return fmt.Errorf("reply at epoch %d, a write was acknowledged at %d before the request", resp.Epoch, minEpoch)
	}
	if len(resp.Teams) == 0 || len(resp.Teams) > r.K {
		return fmt.Errorf("%d teams for k=%d", len(resp.Teams), r.K)
	}
	for ti, t := range resp.Teams {
		covered := make(map[string]bool, len(r.Skills))
		for _, m := range t.Members {
			for _, s := range m.Skills {
				if !ck.holds(m.Name, s) {
					return fmt.Errorf("team %d assigns %q to %q, who does not hold it", ti, s, m.Name)
				}
				covered[s] = true
			}
		}
		for _, s := range r.Skills {
			if !covered[s] {
				return fmt.Errorf("team %d leaves skill %q uncovered", ti, s)
			}
		}
		sc := t.Scores
		for _, v := range []float64{sc.CC, sc.CA, sc.SA, sc.CACC, sc.SACACC} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("team %d has a non-finite score %v", ti, sc)
			}
		}
	}
	return nil
}

var methodOf = map[string]core.Method{"cc": core.CC, "ca-cc": core.CACC, "sa-ca-cc": core.SACACC}

// defaultGamma and defaultLambda are the server's request defaults
// (the paper's setting), which the workloads never override.
const defaultGamma, defaultLambda = 0.6, 0.6

// objective is the index, in evaluate's order, of the score each
// method's greedy search minimizes.
var objective = map[string]int{"cc": 0, "ca-cc": 3, "sa-ca-cc": 4}

// recompute checks sampled read-unique replies against Algorithm 1
// run in-process with per-root Dijkstra (no index) on the base graph:
// the same roots, members and scores. Index and Dijkstra distances may
// differ in their last bits, so where two holders of a skill cost the
// method the same, the two runs may pick different ones. A team whose
// members differ is accepted only when its root and the method's
// objective score match; it is counted as a tie.
func recompute(c *corpus, kept map[int]keptReply) (n, ties int, err error) {
	g := c.g
	p, err := transform.Fit(g, defaultGamma, defaultLambda, transform.Options{Normalize: true})
	if err != nil {
		return 0, 0, err
	}
	idx := make([]int, 0, len(kept))
	for i := range kept {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		r, resp := kept[i].req, kept[i].resp
		project := make([]expertgraph.SkillID, len(r.Skills))
		for j, s := range r.Skills {
			project[j], _ = g.SkillID(s)
		}
		slices.Sort(project)
		teams, err := core.NewDiscoverer(p, methodOf[r.Method]).TopK(project, r.K)
		if err != nil {
			return 0, 0, fmt.Errorf("request %d: in-process TopK: %w", i, err)
		}
		if len(teams) != len(resp.Teams) {
			return 0, 0, fmt.Errorf("request %d: %d teams in-process, %d served", i, len(teams), len(resp.Teams))
		}
		for ti, t := range teams {
			got := resp.Teams[ti]
			if got.Root != g.Name(t.Root) {
				return 0, 0, fmt.Errorf("request %d team %d: root %q in-process, %q served", i, ti, g.Name(t.Root), got.Root)
			}
			want := evaluate(t, p)
			have := []float64{got.Scores.CC, got.Scores.CA, got.Scores.SA, got.Scores.CACC, got.Scores.SACACC}
			if diff := memberDiff(g, t, got); diff != "" {
				if o := objective[r.Method]; !near(want[o], have[o]) {
					return 0, 0, fmt.Errorf("request %d team %d: %s, and %s objective %v in-process, %v served",
						i, ti, diff, r.Method, want[o], have[o])
				}
				ties++
				continue
			}
			for k := range want {
				if !near(want[k], have[k]) {
					return 0, 0, fmt.Errorf("request %d team %d: scores %v in-process, %v served", i, ti, want, have)
				}
			}
		}
	}
	return len(idx), ties, nil
}

// memberDiff describes the first difference between the members of the
// in-process team and the served one, or returns "" when they agree.
func memberDiff(g *expertgraph.Graph, t *team.Team, got server.TeamResult) string {
	if len(got.Members) != len(t.Nodes) {
		return fmt.Sprintf("%d members in-process, %d served", len(t.Nodes), len(got.Members))
	}
	for mi, u := range t.Nodes {
		if got.Members[mi].Name != g.Name(u) {
			return fmt.Sprintf("member %d is %q in-process, %q served", mi, g.Name(u), got.Members[mi].Name)
		}
	}
	return ""
}

// near compares scores computed over index and Dijkstra distances,
// which may differ in the last bits.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

func evaluate(t *team.Team, p *transform.Params) []float64 {
	s := team.Evaluate(t, p)
	return []float64{s.CC, s.CA, s.SA, s.CACC, s.SACACC}
}

// followerChecks compares ingest's follower with the leader once the
// load has stopped and the follower has caught up.
func followerChecks(st *stack, lastAcked uint64) ([]string, error) {
	leader := st.srv.Store()
	le, fe := leader.Epoch(), st.fstore.Epoch()
	if le != fe || le != lastAcked {
		return nil, fmt.Errorf("epochs differ: leader %d, follower %d, last acked write %d", le, fe, lastAcked)
	}
	const lastN = 64
	from := le - min(le, lastN)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	lm, _, err := leader.TailSince(ctx, from, lastN)
	if err != nil {
		return nil, fmt.Errorf("leader TailSince(%d): %w", from, err)
	}
	fm, _, err := st.fstore.TailSince(ctx, from, lastN)
	if err != nil {
		return nil, fmt.Errorf("follower TailSince(%d): %w", from, err)
	}
	lj, err := json.Marshal(lm)
	if err != nil {
		return nil, err
	}
	fj, err := json.Marshal(fm)
	if err != nil {
		return nil, err
	}
	if string(lj) != string(fj) {
		return nil, fmt.Errorf("last %d records differ between leader and follower", len(lm))
	}
	ls, fs := leader.Snapshot(), st.fstore.Snapshot()
	if fs.NumNodes() != ls.NumNodes() || fs.NumEdges() != ls.NumEdges() {
		return nil, fmt.Errorf("follower has %d nodes %d edges, leader %d and %d", fs.NumNodes(), fs.NumEdges(), ls.NumNodes(), ls.NumEdges())
	}
	return []string{
		fmt.Sprintf("follower epoch = leader epoch = last acked write = %d", le),
		fmt.Sprintf("last %d records identical in the leader's and the follower's TailSince", len(lm)),
	}, nil
}

// journalCheck closes the stack and reopens the leader's journal with
// live.Open: it must replay to the last acknowledged epoch with the
// leader's node and edge counts. The journal is not fsynced, so this
// is durability across a process restart, not a power loss.
func journalCheck(st *stack, c *corpus, lastAcked uint64) (string, error) {
	snap := st.srv.Store().Snapshot()
	nodes, edges := snap.NumNodes(), snap.NumEdges()
	journal := filepath.Join(st.dir, "graph.wal")
	st.close() // flushes and releases the journal
	reopened, err := live.Open(c.g, live.Config{JournalPath: journal})
	if err != nil {
		return "", fmt.Errorf("reopen journal: %w", err)
	}
	defer reopened.Close()
	rs := reopened.Snapshot()
	if rs.Epoch() != lastAcked || rs.NumNodes() != nodes || rs.NumEdges() != edges {
		return "", fmt.Errorf("restart durability (fsync off): reopened journal at epoch %d with %d nodes %d edges, want %d, %d, %d",
			rs.Epoch(), rs.NumNodes(), rs.NumEdges(), lastAcked, nodes, edges)
	}
	return fmt.Sprintf("restart durability (fsync off): the reopened journal replays to epoch %d with %d nodes, %d edges", rs.Epoch(), nodes, edges), nil
}
