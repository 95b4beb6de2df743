package authteam_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"authteam"
	"authteam/internal/live"
	"authteam/internal/repl"
	"authteam/internal/server"
)

// waitPeerEpoch polls a node's /v1/cluster/role until its epoch
// reaches target.
func waitPeerEpoch(t *testing.T, url string, target uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for {
		ri, err := repl.FetchRole(ctx, nil, url)
		if err == nil && ri.Epoch >= target {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("peer %s stuck below epoch %d (last: %+v, %v)", url, target, ri, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestClientFailover exercises the peer-list failover of an embedded
// following client: when its leader is fenced out of the lineage (or
// simply dead), a mutation re-resolves the leader from Options.Peers —
// the node claiming the role on the highest term — retries there,
// repoints the forwarder AND restarts the local replication loop
// against the survivor. The local replica resyncs onto the surviving
// lineage, so read-your-writes settles and every later write is fully
// acknowledged — no permanent ErrReplicationLag, no frozen reads.
func TestClientFailover(t *testing.T) {
	g := liveBase(t)
	as, err := server.New(server.Config{Graph: g, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	ats := httptest.NewServer(as.Handler())
	defer ats.Close()

	bs, err := server.New(server.Config{FollowURL: ats.URL, FollowPoll: 100 * time.Millisecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	bts := httptest.NewServer(bs.Handler())
	defer bts.Close()

	c, err := authteam.New(nil, authteam.Options{
		Follow:     ats.URL,
		Peers:      []string{ats.URL, bts.URL},
		FollowPoll: 100 * time.Millisecond,
		FollowWait: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Normal operation: the write forwards to A and replicates back.
	if _, err := c.AddExpert("pre", 5, "databases"); err != nil {
		t.Fatalf("pre-failover write: %v", err)
	}
	waitPeerEpoch(t, bts.URL, 1)

	// Failover: B is promoted to term 1 and A is fenced by the first
	// post-partition contact claiming the new term.
	resp, err := http.Post(bts.URL+"/v1/cluster/promote", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote B: %s", resp.Status)
	}
	if _, ferr := repl.NewLeader(ats.URL, nil).WithTerm(bs.Store().Term).AddEdge(0, 2, 0.9); !errors.Is(ferr, live.ErrFenced) {
		t.Fatalf("fencing contact: %v, want ErrFenced", ferr)
	}

	// The client's next mutation bounces off fenced A, re-resolves the
	// leader from the peer list, lands on B, and restarts the local
	// replication loop against B. The restarted loop finds the local
	// store fenced, resyncs from B's base onto the surviving lineage,
	// and catches up — so read-your-writes settles and the write is
	// fully acknowledged.
	if _, err := c.AddExpert("post", 4, "ml"); err != nil {
		t.Fatalf("failover write: %v, want full recovery", err)
	}
	waitPeerEpoch(t, bts.URL, 2)

	// Repointed: the follow-up mutation goes straight to B and the
	// already-resynced replica confirms it without drama.
	if err := c.AddCollaboration(0, 2, 0.7); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	waitPeerEpoch(t, bts.URL, 3)

	// The replica recovered for real: the loop is running against the
	// survivor, the fence is gone, and the local epoch reached the
	// surviving lineage's head (awaitEpoch already proved this for each
	// write; pin it explicitly).
	if fs, ok := c.FollowerStats(); !ok || !fs.Running {
		t.Fatalf("follower after failover: ok=%v stats=%+v, want running", ok, fs)
	}
	if got := c.Epoch(); got < 3 {
		t.Fatalf("client epoch after failover: %d, want >= 3", got)
	}

	// Transport-level failover: a client whose leader is simply gone
	// takes the same path off a *url.Error.
	ats.CloseClientConnections()
	ats.Close()
	c2, err := authteam.New(nil, authteam.Options{
		Follow:     ats.URL,
		Peers:      []string{ats.URL, bts.URL},
		FollowPoll: 100 * time.Millisecond,
		FollowWait: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.AddExpert("late", 3, "networks"); err != nil {
		t.Fatalf("dead-leader write: %v, want full recovery", err)
	}
	waitPeerEpoch(t, bts.URL, 4)

	if ri, err := repl.FetchRole(context.Background(), nil, bts.URL); err != nil || ri.Role != "leader" || ri.Term != 1 {
		t.Fatalf("survivor role: %+v, %v", ri, err)
	}
}

// TestIndexedFollowingClientAfterBootstrap pins index maintenance
// across a follower's bootstrap: the indexed client builds its covers
// over the empty pre-bootstrap graph at epoch 0, then adopts the
// leader's base at that same epoch 0 and tails one mutation past it.
// The epoch-0 covers belong to the discarded empty lineage; repairing
// them across the adoption used to index past their (empty) labels and
// panic. They must be rebuilt, and the team must match an unindexed
// follower's.
func TestIndexedFollowingClientAfterBootstrap(t *testing.T) {
	as, err := server.New(server.Config{Graph: liveBase(t), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	ats := httptest.NewServer(as.Handler())
	defer ats.Close()

	fwd, err := authteam.New(nil, authteam.Options{Follow: ats.URL, FollowWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	if err := fwd.AddCollaboration(0, 2, 0.6); err != nil {
		t.Fatal(err)
	}

	skills := []string{"databases", "ml"}
	var want []*authteam.Team
	for _, buildIndex := range []bool{false, true} {
		c, err := authteam.New(nil, authteam.Options{Follow: ats.URL, BuildIndex: buildIndex})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ok := c.WaitEpoch(ctx, 1)
		cancel()
		if !ok {
			c.Close()
			t.Fatalf("BuildIndex=%v: follower stuck at epoch %d", buildIndex, c.Epoch())
		}
		teams, err := c.TopK(authteam.SACACC, skills, 2)
		c.Close()
		if err != nil {
			t.Fatalf("BuildIndex=%v: %v", buildIndex, err)
		}
		if !buildIndex {
			want = teams
			continue
		}
		if !reflect.DeepEqual(teams, want) {
			t.Fatalf("indexed follower teams %+v, unindexed %+v", teams, want)
		}
	}
}

// TestFollowingClientServesAdoptedBaseAtEpochZero pins the client's
// derived-state cache across a bootstrap that lands on the same epoch:
// the leader never wrote, so the follower adopts its base at epoch 0,
// the epoch of the empty pre-bootstrap graph the client first derived
// its state from. Comparing epochs alone, that empty state looked
// current and every query failed with an unknown skill. Queries must
// see the adopted graph, exactly as a client built over it does.
func TestFollowingClientServesAdoptedBaseAtEpochZero(t *testing.T) {
	as, err := server.New(server.Config{Graph: liveBase(t), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	ats := httptest.NewServer(as.Handler())
	defer ats.Close()

	local, err := authteam.New(liveBase(t), authteam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	skills := []string{"databases", "ml"}
	want, err := local.TopK(authteam.SACACC, skills, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, buildIndex := range []bool{false, true} {
		c, err := authteam.New(nil, authteam.Options{Follow: ats.URL, BuildIndex: buildIndex})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for fs, _ := c.FollowerStats(); fs.BaseFetches == 0; fs, _ = c.FollowerStats() {
			if time.Now().After(deadline) {
				c.Close()
				t.Fatalf("BuildIndex=%v: no base adopted (%+v)", buildIndex, fs)
			}
			time.Sleep(10 * time.Millisecond)
		}
		teams, err := c.TopK(authteam.SACACC, skills, 2)
		c.Close()
		if err != nil {
			t.Fatalf("BuildIndex=%v: %v", buildIndex, err)
		}
		if !reflect.DeepEqual(teams, want) {
			t.Fatalf("BuildIndex=%v: follower teams %+v, local %+v", buildIndex, teams, want)
		}
	}
}
