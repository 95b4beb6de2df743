package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"authteam/internal/live"
)

func sampleMutations() []live.Mutation {
	auth := 12.5
	return []live.Mutation{
		{Op: live.OpAddNode, Name: "zoe", Authority: 3, Skills: []string{"s0", "s1"}},
		{Op: live.OpAddEdge, U: 0, V: 5, W: 0.25},
		{Op: live.OpUpdateNode, Node: 2, SetAuthority: &auth, AddSkills: []string{"x1"}},
		{Op: live.OpUpdateEdge, U: 0, V: 5, W: 0.5, OldW: 0.25},
		{Op: live.OpRemoveEdge, U: 0, V: 5, OldW: 0.5},
	}
}

func TestTailRoundTrip(t *testing.T) {
	in := sampleMutations()
	var buf bytes.Buffer
	if err := WriteTail(&buf, 7, 12, 3, in); err != nil {
		t.Fatal(err)
	}
	out, hdr, err := ReadTail(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.JournalStart == nil || *hdr.JournalStart != 7 || hdr.Epoch != 12 {
		t.Fatalf("header %+v, want journal_start 7, epoch 12", hdr)
	}
	if len(out) != len(in) {
		t.Fatalf("%d records out, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].U != in[i].U || out[i].V != in[i].V || out[i].W != in[i].W {
			t.Fatalf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
	if out[2].SetAuthority == nil || *out[2].SetAuthority != auth(in) {
		t.Fatalf("record 2 lost its authority pointer: %+v", out[2])
	}
}

func auth(in []live.Mutation) float64 { return *in[2].SetAuthority }

func TestTailRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTail(&buf, 42, 42, 0, nil); err != nil {
		t.Fatal(err)
	}
	out, hdr, err := ReadTail(&buf)
	if err != nil || len(out) != 0 {
		t.Fatalf("%d records, err %v; want an empty batch", len(out), err)
	}
	if hdr.Epoch != 42 {
		t.Fatalf("epoch %d, want 42", hdr.Epoch)
	}
}

// TestTailTorn cuts the stream at every byte offset: ReadTail must
// either return the intact prefix with ErrTruncatedTail or, when even
// the header is cut, fail — never invent a record.
func TestTailTorn(t *testing.T) {
	in := sampleMutations()
	var buf bytes.Buffer
	if err := WriteTail(&buf, 0, uint64(len(in)), 1, in); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	headerLen := bytes.IndexByte(whole, '\n') + 1

	for cut := 0; cut < len(whole); cut++ {
		out, _, err := ReadTail(bytes.NewReader(whole[:cut]))
		if cut <= headerLen {
			// Header incomplete (or bare): no records, some error.
			if err == nil && cut < headerLen {
				t.Fatalf("cut %d: torn header accepted", cut)
			}
			if len(out) != 0 {
				t.Fatalf("cut %d: %d records from a torn header", cut, len(out))
			}
			continue
		}
		if !errors.Is(err, ErrTruncatedTail) && err != nil {
			t.Fatalf("cut %d: %v, want ErrTruncatedTail or nil", cut, err)
		}
		// A cut landing exactly on a record boundary reads as a clean
		// short batch — legal, the follower just re-polls. A clean EOF
		// anywhere else means a torn record was swallowed.
		if err == nil && whole[cut-1] != '\n' {
			t.Fatalf("cut %d: mid-record tear read as clean EOF (%d records)", cut, len(out))
		}
		// Every returned record must be one of the originals, in order.
		for i, m := range out {
			if m.Op != in[i].Op {
				t.Fatalf("cut %d record %d: op %q, want %q", cut, i, m.Op, in[i].Op)
			}
		}
	}
}

func TestTailNoHeader(t *testing.T) {
	_, _, err := ReadTail(strings.NewReader(`{"op":"add_edge","u":1,"v":2,"w":0.5}` + "\n"))
	if err == nil || errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("headerless stream: %v, want a hard header error", err)
	}
}

func TestTailGarbageRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTail(&buf, 0, 2, 0, sampleMutations()[:1]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("{{{not json\n")
	out, _, err := ReadTail(&buf)
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("garbage record: %v, want ErrTruncatedTail", err)
	}
	if len(out) != 1 {
		t.Fatalf("%d records before the garbage, want 1", len(out))
	}
}

// FuzzReadTail feeds arbitrary bytes to the tail decoder, which reads
// every replication response. Decoding must never panic, and whatever
// records it returns must survive a WriteTail/ReadTail round trip
// unchanged. The seeds are a clean stream, a header-only stream, a
// three-record stream cut at every byte offset, and a {"group":N} line
// with a huge N, as a peer speaking the grouped framing may send: the
// decoder must treat it as a torn record, never size anything by N.
func FuzzReadTail(f *testing.F) {
	var clean, empty, three bytes.Buffer
	if err := WriteTail(&clean, 7, 12, 3, sampleMutations()); err != nil {
		f.Fatal(err)
	}
	if err := WriteTail(&empty, 42, 42, 0, nil); err != nil {
		f.Fatal(err)
	}
	if err := WriteTail(&three, 0, 3, 1, sampleMutations()[:3]); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())
	f.Add(empty.Bytes())
	for cut := 0; cut <= three.Len(); cut++ {
		f.Add(three.Bytes()[:cut])
	}
	f.Add([]byte(`{"journal_start":0,"epoch":1}` + "\n" + `{"group":1099511627776}` + "\n" +
		`{"op":"add_edge","u":1,"v":2,"w":0.5}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		out, hdr, err := ReadTail(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrTruncatedTail) && len(out) != 0 {
			t.Fatalf("header error %v came with %d records", err, len(out))
		}
		var from uint64
		if hdr.JournalStart != nil {
			from = *hdr.JournalStart
		}
		var buf bytes.Buffer
		if err := WriteTail(&buf, from, hdr.Epoch, hdr.Term, out); err != nil {
			t.Fatalf("re-encode %d records: %v", len(out), err)
		}
		again, hdr2, err := ReadTail(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if *hdr2.JournalStart != from || hdr2.Epoch != hdr.Epoch || hdr2.Term != hdr.Term {
			t.Fatalf("header %+v came back as %+v", hdr, hdr2)
		}
		want, _ := json.Marshal(out)
		got, _ := json.Marshal(again)
		if !bytes.Equal(want, got) {
			t.Fatalf("records changed in a round trip:\n%s\n%s", want, got)
		}
	})
}
