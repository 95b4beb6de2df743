package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"authteam/internal/live"
	"authteam/internal/repl"
)

func getRole(t *testing.T, url string) repl.RoleInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster/role")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("role endpoint: %s", resp.Status)
	}
	var ri repl.RoleInfo
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		t.Fatal(err)
	}
	return ri
}

func promoteNode(t *testing.T, url string, body string) (int, PromoteResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/cluster/promote", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var pr PromoteResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatalf("decode promote reply %s: %v", raw, err)
		}
	}
	return resp.StatusCode, pr, raw
}

// TestClusterRoleEndpoint checks both born roles report themselves.
func TestClusterRoleEndpoint(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	ri := getRole(t, lts.URL)
	if ri.Role != "leader" || ri.Term != 0 || ri.Leader != "" {
		t.Fatalf("born leader role: %+v", ri)
	}
	_, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)
	fri := getRole(t, fts.URL)
	if fri.Role != "follower" || fri.Leader != lts.URL {
		t.Fatalf("born follower role: %+v", fri)
	}
}

// TestPromoteFollower walks the follower → leader transition end to
// end over HTTP: the promoted node seals the shared prefix, bumps the
// term, applies mutations locally instead of redirecting, serves the
// journal as the new lineage, and reports it all through role, stats
// and readiness.
func TestPromoteFollower(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	if status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "pre", "authority": 6, "skills": ["analytics"]}`); status != http.StatusCreated {
		t.Fatalf("seed write: %d: %s", status, data)
	}
	fs, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)

	status, pr, raw := promoteNode(t, fts.URL, "")
	if status != http.StatusOK {
		t.Fatalf("promote: %d: %s", status, raw)
	}
	if pr.Role != "leader" || pr.Term != 1 || pr.SealedEpoch != ls.store.Epoch() {
		t.Fatalf("promote reply %+v, want leader at term 1 sealed at %d", pr, ls.store.Epoch())
	}
	if ri := getRole(t, fts.URL); ri.Role != "leader" || ri.Term != 1 || ri.Leader != "" {
		t.Fatalf("post-promotion role: %+v", ri)
	}

	// Promotion is idempotent: a retry of a timed-out call answers what
	// the first call did.
	if status2, pr2, raw2 := promoteNode(t, fts.URL, ""); status2 != http.StatusOK || pr2.Term != 1 {
		t.Fatalf("repeat promote: %d %+v %s", status2, pr2, raw2)
	}

	// Mutations now apply locally — no redirect — and are minted under
	// the new term.
	req, _ := http.NewRequest("POST", fts.URL+"/v1/graph/nodes",
		strings.NewReader(`{"name": "post", "authority": 4, "skills": ["matrix"]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := noRedirect().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("write on promoted node: %d: %s", resp.StatusCode, data)
	}
	var mr MutationResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != pr.SealedEpoch+1 {
		t.Fatalf("first post-promotion epoch %d, want %d", mr.Epoch, pr.SealedEpoch+1)
	}

	// The journal now serves the new lineage: the record past the seal
	// carries term 1.
	src := repl.NewHTTPSource(fts.URL, nil)
	muts, _, err := src.Tail(ctx(t), pr.SealedEpoch, 0)
	if err != nil || len(muts) != 1 {
		t.Fatalf("tail of promoted node: %d muts, %v", len(muts), err)
	}
	if muts[0].Term != 1 {
		t.Fatalf("post-promotion record term %d, want 1", muts[0].Term)
	}

	// Readiness and stats follow the role.
	if code, out := getReadyz(t, fts.URL); code != http.StatusOK || out.Role != "leader" {
		t.Fatalf("promoted readyz: %d %+v", code, out)
	}
	st := getStats(t, fts.URL)
	if st.Replication.Role != "leader" || st.Replication.Term != 1 || st.Replication.Promotions != 1 {
		t.Fatalf("promoted stats: %+v", st.Replication)
	}
	if st.Replication.Follower != nil {
		t.Fatalf("promoted node still reports a follower section: %+v", st.Replication.Follower)
	}
	_ = fs
}

// ctx returns a context bounded well under the test deadline — enough
// for the short tails these tests issue.
func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

// TestStaleTermTailFenced drives the tail fencing matrix directly over
// the wire against a leader whose store sits at term 3.
func TestStaleTermTailFenced(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	if status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "pre", "authority": 6, "skills": ["analytics"]}`); status != http.StatusCreated {
		t.Fatalf("seed write: %d: %s", status, data)
	}
	if _, err := ls.store.Promote(3); err != nil {
		t.Fatal(err)
	}
	if status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "post", "authority": 4, "skills": ["matrix"]}`); status != http.StatusCreated {
		t.Fatalf("post-promotion write: %d: %s", status, data)
	}
	start := ls.store.TermStart() // 1; current epoch is 2

	tail := func(from, term uint64) *http.Response {
		t.Helper()
		url := fmt.Sprintf("%s/v1/journal/tail?from=%d", lts.URL, from)
		if term != 0 {
			url += fmt.Sprintf("&term=%d", term)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// A stale claim asking for history past the lineage boundary is the
	// splice fencing exists to reject: 412 with our term in the header.
	if resp := tail(start+1, 1); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale term past boundary: %d, want 412", resp.StatusCode)
	} else if resp.Header.Get(repl.TermHeader) != "3" {
		t.Fatalf("fence header %q, want 3", resp.Header.Get(repl.TermHeader))
	}
	// The same stale claim inside the shared prefix is served — that is
	// how an old-term replica catches up into the new lineage.
	if resp := tail(0, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale term inside shared prefix: %d, want 200", resp.StatusCode)
	}
	// No claim at all (a peer predating cluster roles) is never fenced.
	if resp := tail(start+1, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("unclaimed tail: %d, want 200", resp.StatusCode)
	}

	// The typed client surfaces the fence as *live.FencedError.
	src := repl.NewHTTPSource(lts.URL, nil).WithTerm(func() uint64 { return 1 })
	_, _, err := src.Tail(ctx(t), start+1, 0)
	if !errors.Is(err, live.ErrFenced) {
		t.Fatalf("typed tail fence: %v, want ErrFenced", err)
	}

	// A claim BEYOND our term proves this leader was superseded: it
	// must answer 412 with its own (lower) term and fence itself.
	if resp := tail(0, 5); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("future-term tail: %d, want 412", resp.StatusCode)
	} else if resp.Header.Get(repl.TermHeader) != "3" {
		t.Fatalf("superseded leader advertised term %q, want its own 3", resp.Header.Get(repl.TermHeader))
	}
	if ls.Role() != "demoted" || !ls.store.Fenced() {
		t.Fatalf("superseded leader: role %s fenced %v", ls.Role(), ls.store.Fenced())
	}
	// Once demoted, everything is refused: local writes, the tail, the
	// base, and a promotion attempt.
	if status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "late", "authority": 1}`); status != http.StatusPreconditionFailed {
		t.Fatalf("write on demoted node: %d: %s", status, data)
	}
	if resp := tail(0, 0); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("tail of demoted node: %d, want 412", resp.StatusCode)
	}
	if resp, err := http.Get(lts.URL + "/v1/journal/base"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("base of demoted node: %d, want 412", resp.StatusCode)
		}
	}
	if status, _, raw := promoteNode(t, lts.URL, ""); status != http.StatusConflict {
		t.Fatalf("promote demoted node: %d: %s", status, raw)
	}
	if code, out := getReadyz(t, lts.URL); code == http.StatusOK || out.Ready {
		t.Fatalf("demoted readyz: %d %+v", code, out)
	}
}

// TestForwardFenceDemotesOldLeader checks the partitioned-old-leader
// story on the mutation path: the first forwarded write claiming a
// newer term both bounces with the fence and flips the stale leader
// out of the serving lineage.
func TestForwardFenceDemotesOldLeader(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	fwd := repl.NewLeader(lts.URL, nil).WithTerm(func() uint64 { return 2 })
	_, err := fwd.AddEdge(0, 2, 0.5)
	if !errors.Is(err, live.ErrFenced) {
		t.Fatalf("forward with newer term: %v, want ErrFenced", err)
	}
	if ls.Role() != "demoted" || !ls.store.Fenced() {
		t.Fatalf("old leader after fence: role %s fenced %v", ls.Role(), ls.store.Fenced())
	}
	// Its queued writes — retried without any term claim — stay fenced.
	if status, data := postJSON(t, lts.URL+"/v1/graph/edges",
		`{"u": 0, "v": 2, "w": 0.5}`); status != http.StatusPreconditionFailed {
		t.Fatalf("queued write on demoted leader: %d: %s", status, data)
	}
	st := getStats(t, lts.URL)
	if st.Replication.Role != "demoted" || st.Replication.FencedRequests == 0 {
		t.Fatalf("demoted stats: %+v", st.Replication)
	}
}

// soakWrite returns the i-th record of the deterministic soak write
// sequence: a node birth, every third write followed by an edge to the
// seed graph. Identical sequences must yield identical stores.
func soakWrites(n int) []string {
	skills := []string{"analytics", "matrix", "communities"}
	var out []string
	for i := 0; len(out) < n; i++ {
		out = append(out, fmt.Sprintf(`{"name": "n%d", "authority": %d, "skills": ["%s"]}`,
			i, 1+i%17, skills[i%len(skills)]))
	}
	return out[:n]
}

// applyWrites posts ws sequentially to url, failing the test on any
// non-201, and returns the last committed epoch.
func applyWrites(t *testing.T, url string, ws []string) uint64 {
	t.Helper()
	var last uint64
	for i, w := range ws {
		path := "/v1/graph/nodes"
		status, data := postJSON(t, url+path, w)
		if status != http.StatusCreated {
			t.Fatalf("write %d: %d: %s", i, status, data)
		}
		var mr MutationResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			t.Fatal(err)
		}
		last = mr.Epoch
	}
	return last
}

// TestPromotionSoak is the failover drill: a leader dies mid-stream, a
// follower is promoted and takes the remaining writes, the resurrected
// old leader's queued writes are fenced — and the surviving lineage
// answers byte-identically to a control run that never failed over.
func TestPromotionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const total, failAt = 60, 30
	writes := soakWrites(total)

	// A seed write precedes the follower so its catch-up wait is for a
	// non-zero epoch — forcing the base bootstrap before readers start.
	const seed = `{"name": "seed", "authority": 5, "skills": ["analytics"]}`

	// Control: the same write sequence on a leader that never fails.
	_, cts := newTestServer(t, nil)
	applyWrites(t, cts.URL, append([]string{seed}, writes...))
	want, _ := json.Marshal(discoverAt(t, cts.URL))

	// Failover run: leader A, follower B.
	as, ats := newTestServer(t, nil)
	applyWrites(t, ats.URL, []string{seed})
	bs, bts := newFollowerServer(t, ats.URL, as.store.Epoch(), nil)

	// Concurrent readers hammer the follower through the whole drill so
	// the promotion flip runs under real read traffic.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(bts.URL+"/v1/discover", "application/json",
					strings.NewReader(discoverBody))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// Phase 1: the stream runs against A until the crash point; B must
	// hold the full prefix before A dies, or the failover loses writes.
	prefixEpoch := applyWrites(t, ats.URL, writes[:failAt])
	waitServerEpoch(t, bs, prefixEpoch)

	// Phase 2: A's transport dies mid-stream.
	ats.CloseClientConnections()
	ats.Close()

	// Phase 3: promote B; it becomes the writer for the rest of the
	// stream.
	status, pr, raw := promoteNode(t, bts.URL, "")
	if status != http.StatusOK || pr.Term != 1 || pr.SealedEpoch != prefixEpoch {
		t.Fatalf("promote: %d %+v %s", status, pr, raw)
	}
	finalEpoch := applyWrites(t, bts.URL, writes[failAt:])

	// Phase 4: A comes back from the dead and the failover-aware client
	// retries its queued writes there, claiming the new lineage's term.
	// The first contact fences A; the queue drains as rejections.
	ats2 := httptest.NewServer(as.Handler())
	defer ats2.Close()
	fwd := repl.NewLeader(ats2.URL, nil).WithTerm(bs.store.Term)
	for i := 0; i < 3; i++ {
		if _, _, err := fwd.AddNode(fmt.Sprintf("queued%d", i), 1, nil); !errors.Is(err, live.ErrFenced) {
			t.Fatalf("queued write %d on resurrected leader: %v, want ErrFenced", i, err)
		}
	}
	if as.Role() != "demoted" || !as.store.Fenced() {
		t.Fatalf("resurrected leader: role %s fenced %v", as.Role(), as.store.Fenced())
	}
	// Its own local queue is equally dead.
	if _, err := as.store.AddCollaboration(0, 2, 0.9); !errors.Is(err, live.ErrFenced) {
		t.Fatalf("local append on fenced store: %v, want ErrFenced", err)
	}

	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The surviving lineage converged on exactly the control state —
	// same epoch, byte-identical discovery.
	if bs.store.Epoch() != finalEpoch || finalEpoch != uint64(total)+1 {
		t.Fatalf("survivor epoch %d (last write %d), want %d", bs.store.Epoch(), finalEpoch, total+1)
	}
	got, _ := json.Marshal(discoverAt(t, bts.URL))
	if string(want) != string(got) {
		t.Fatalf("failover divergence:\ncontrol  %s\nsurvivor %s", want, got)
	}
	if ri := getRole(t, bts.URL); ri.Role != "leader" || ri.Term != 1 || ri.Epoch != uint64(total)+1 {
		t.Fatalf("survivor role: %+v", ri)
	}
}

// TestLoopFencedFollowerDemotesRole: a follower whose replication loop
// is fenced by its source demotes its own *store* and exits — without
// ever touching the server's role atomic. The server must fold the
// store fence into every role surface anyway: before the fix it kept
// reporting "follower" and, crucially, kept serving /v1/journal/base —
// seeding downstream followers with its divergent suffix stamped under
// the new term.
func TestLoopFencedFollowerDemotesRole(t *testing.T) {
	as, ats := newTestServer(t, nil)
	if status, data := postJSON(t, ats.URL+"/v1/graph/nodes",
		`{"name": "pre", "authority": 6, "skills": ["analytics"]}`); status != http.StatusCreated {
		t.Fatalf("seed write: %d: %s", status, data)
	}
	bs, bts := newFollowerServer(t, ats.URL, as.store.Epoch(), nil)

	// A newer lineage fences A out-of-band (a promoted peer's first
	// contact, compressed to the store call). B's next poll gets the
	// 412 carrying term 9, demotes its own store, and stops.
	if err := as.store.Demote(9); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for !bs.store.Fenced() {
		if time.Now().After(deadline) {
			fs, _ := bs.node.FollowerStats()
			t.Fatalf("follower store never fenced; follower stats: %+v", fs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if ri := getRole(t, bts.URL); ri.Role != "demoted" || ri.Term != 9 {
		t.Fatalf("loop-fenced follower role: %+v, want demoted at term 9", ri)
	}
	resp, err := http.Get(bts.URL + "/v1/journal/base")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("base of loop-fenced follower: %d, want 412", resp.StatusCode)
	}
	if status, _, raw := promoteNode(t, bts.URL, ""); status != http.StatusConflict {
		t.Fatalf("promote loop-fenced follower: %d: %s", status, raw)
	}
	if code, out := getReadyz(t, bts.URL); code == http.StatusOK || out.Ready {
		t.Fatalf("loop-fenced follower readyz: %d %+v", code, out)
	}
	st := getStats(t, bts.URL)
	if st.Replication.Role != "demoted" {
		t.Fatalf("loop-fenced follower stats role: %+v", st.Replication)
	}
}

// TestPromoteStaleExplicitTermKeepsFollower: an explicit promote term
// that is not beyond the node's current term is a bad request, not a
// failed promotion — it must answer 409 with the node's role intact.
// Before the fix the store.Promote failure path demoted the node (now
// durably), so an operator typo cost a healthy follower permanently.
func TestPromoteStaleExplicitTermKeepsFollower(t *testing.T) {
	as, ats := newTestServer(t, nil)
	if status, data := postJSON(t, ats.URL+"/v1/graph/nodes",
		`{"name": "pre", "authority": 6, "skills": ["analytics"]}`); status != http.StatusCreated {
		t.Fatalf("seed write: %d: %s", status, data)
	}
	bs, bts := newFollowerServer(t, ats.URL, as.store.Epoch(), nil)
	status, pr, raw := promoteNode(t, bts.URL, `{"term": 5}`)
	if status != http.StatusOK || pr.Term != 5 {
		t.Fatalf("promote to explicit term: %d %+v %s", status, pr, raw)
	}
	if status, data := postJSON(t, bts.URL+"/v1/graph/nodes",
		`{"name": "post", "authority": 4, "skills": ["matrix"]}`); status != http.StatusCreated {
		t.Fatalf("write on promoted node: %d: %s", status, data)
	}

	// C follows the new leader and adopts term 5 from the stream.
	cs, cts := newFollowerServer(t, bts.URL, bs.store.Epoch(), nil)
	if got := cs.store.Term(); got != 5 {
		t.Fatalf("follower term %d, want 5 adopted from the leader", got)
	}

	status, _, raw = promoteNode(t, cts.URL, `{"term": 3}`)
	if status != http.StatusConflict {
		t.Fatalf("stale explicit term: %d: %s", status, raw)
	}
	if ri := getRole(t, cts.URL); ri.Role != "follower" || cs.store.Fenced() {
		t.Fatalf("after rejected promote: %+v fenced %v, want an intact follower", ri, cs.store.Fenced())
	}
	// Still promotable with a genuinely newer term.
	status, pr, raw = promoteNode(t, cts.URL, `{"term": 9}`)
	if status != http.StatusOK || pr.Term != 9 {
		t.Fatalf("promote after rejected attempt: %d %+v %s", status, pr, raw)
	}
}

// TestDemotedRoleSurvivesRestart: a journaled node whose store was
// fenced out of the lineage must come back up demoted — not as a
// self-proclaimed ready leader whose every write 412s. The store-level
// fence already persists (TestDemotePersistsFence); this pins the
// server reading it at boot.
func TestDemotedRoleSurvivesRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	g := builderGraph(t)
	s1, ts1 := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.JournalPath = journal
	})
	if status, data := postJSON(t, ts1.URL+"/v1/graph/nodes",
		`{"name": "pre", "authority": 6, "skills": ["analytics"]}`); status != http.StatusCreated {
		t.Fatalf("seed write: %d: %s", status, data)
	}
	if err := s1.store.Demote(7); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.JournalPath = journal
	})
	if ri := getRole(t, ts2.URL); ri.Role != "demoted" || ri.Term != 7 {
		t.Fatalf("restarted fenced node role: %+v, want demoted term 7", ri)
	}
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("restarted fenced node readyz: %s, want 503", resp.Status)
	}
	if status, data := postJSON(t, ts2.URL+"/v1/graph/nodes",
		`{"name": "late", "authority": 3, "skills": ["query"]}`); status != http.StatusPreconditionFailed {
		t.Fatalf("write on restarted fenced node: %d: %s", status, data)
	}
	if status, _, _ := promoteNode(t, ts2.URL, `{}`); status != http.StatusConflict {
		t.Fatalf("promote on restarted fenced node: %d, want 409", status)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_ = ts2
}
