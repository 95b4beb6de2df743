package main

import (
	"slices"
	"strings"
	"testing"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/server"
	"authteam/internal/transform"
)

// TestRecomputeTies checks the in-process recomputation's rule: teams
// must match the reference member for member and score for score,
// except that other members are accepted when the method's objective
// score is the same (a tie between equally cheap holders).
func TestRecomputeTies(t *testing.T) {
	c, err := newCorpus(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	list, err := uniqueProjects(c, 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := list[0]
	g := c.g
	p, err := transform.Fit(g, defaultGamma, defaultLambda, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	project := make([]expertgraph.SkillID, len(r.Skills))
	for i, s := range r.Skills {
		project[i], _ = g.SkillID(s)
	}
	slices.Sort(project)
	teams, err := core.NewDiscoverer(p, methodOf[r.Method]).TopK(project, r.K)
	if err != nil {
		t.Fatal(err)
	}
	served := func() *server.DiscoverResponse {
		resp := &server.DiscoverResponse{Method: r.Method, K: r.K}
		for _, tm := range teams {
			s := evaluate(tm, p)
			out := server.TeamResult{Root: g.Name(tm.Root),
				Scores: server.ScoreResult{CC: s[0], CA: s[1], SA: s[2], CACC: s[3], SACACC: s[4]}}
			for _, u := range tm.Nodes {
				out.Members = append(out.Members, server.MemberResult{Name: g.Name(u)})
			}
			resp.Teams = append(resp.Teams, out)
		}
		return resp
	}
	objectiveScore := func(s *server.ScoreResult) *float64 {
		return []*float64{&s.CC, &s.CA, &s.SA, &s.CACC, &s.SACACC}[objective[r.Method]]
	}
	otherScore := func(s *server.ScoreResult) *float64 {
		return []*float64{&s.CC, &s.CA, &s.SA, &s.CACC, &s.SACACC}[(objective[r.Method]+1)%5]
	}
	for _, tc := range []struct {
		name     string
		edit     func(*server.TeamResult)
		ties     int
		mismatch string
	}{
		{"identical", func(*server.TeamResult) {}, 0, ""},
		{"other holder, same objective", func(tr *server.TeamResult) { tr.Members[0].Name = "someone else" }, 1, ""},
		{"other holder, other objective", func(tr *server.TeamResult) {
			tr.Members[0].Name = "someone else"
			*objectiveScore(&tr.Scores) += 1e-3
		}, 0, "objective"},
		{"same members, other score", func(tr *server.TeamResult) { *otherScore(&tr.Scores) += 1e-3 }, 0, "scores"},
		{"other root", func(tr *server.TeamResult) { tr.Root = "someone else" }, 0, "root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := served()
			tc.edit(&resp.Teams[0])
			n, ties, err := recompute(c, map[int]keptReply{0: {r, resp}})
			if tc.mismatch != "" {
				if err == nil || !strings.Contains(err.Error(), tc.mismatch) {
					t.Fatalf("got %v, want a %s mismatch", err, tc.mismatch)
				}
				return
			}
			if err != nil || n != 1 || ties != tc.ties {
				t.Fatalf("n=%d ties=%d err=%v, want 1 reply with %d ties", n, ties, err, tc.ties)
			}
		})
	}
}
