// Package repl is the HTTP transport of the replication log: the wire
// format of the journal tail stream, a live.ReplicationSource backed
// by a leader's /v1/journal endpoints, and a small client for
// forwarding mutations to the leader (the write path of a read
// replica). The server imports this package for the codec; this
// package never imports the server — followers embedding only the
// store can replicate without the HTTP serving layer.
package repl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"authteam/internal/live"
)

// The tail stream mirrors the journal file format — a header line
// followed by one JSON mutation per line — so a tail response is
// readable with the same eyes (and tools) as the WAL itself:
//
//	{"journal_start":41,"epoch":45}
//	{"op":"add_node","name":"x",...}   <- epoch 42
//	{"op":"add_edge","u":1,"v":2,...}  <- epoch 43
//	...
//
// journal_start anchors the first record (it applies on top of that
// epoch, exactly like the file header); epoch is the leader's current
// epoch at response time, which a follower uses for lag reporting. An
// idle long-poll returns just the header.
//
// The leader's group commit writes each batch as plain consecutive
// records, so batches never appear on the wire. A follower commits each
// tail response as one group, so the response boundary is the only
// batch boundary it needs. Any node serving the journal endpoints
// speaks this format, which is what lets a follower relay the stream
// to second-tier followers.

// TailHeader is the first line of a tail response.
type TailHeader struct {
	// JournalStart is the epoch the first record applies on top of:
	// the `from` of the request, echoed. A pointer for symmetry with
	// the journal file header (0 is meaningful).
	JournalStart *uint64 `json:"journal_start"`
	// Epoch is the source's current epoch at response time.
	Epoch uint64 `json:"epoch"`
	// Term is the source's current term (0 from servers predating
	// cluster roles). A follower adopts it organically by applying the
	// term-stamped records; the header copy is for observability and
	// for the fencing comparison on error replies.
	Term uint64 `json:"term,omitempty"`
}

// ErrTruncatedTail reports a tail stream that ended mid-record — a
// disconnect while the response was being written. The records parsed
// before the tear are still returned; the caller applies them and
// re-polls from where they end.
var ErrTruncatedTail = errors.New("repl: tail stream truncated mid-record")

// maxTailLine bounds one record line; a remove_node record lists every
// incident edge, so lines can be large but not unbounded.
const maxTailLine = 16 << 20

// WriteTail encodes a tail batch onto w.
func WriteTail(w io.Writer, from, epoch, term uint64, muts []live.Mutation) error {
	bw := bufio.NewWriter(w)
	if err := writeTailHeader(bw, from, epoch, term); err != nil {
		return err
	}
	for i := range muts {
		if err := writeTailRecord(bw, &muts[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("repl: write tail: %w", err)
	}
	return nil
}

func writeTailHeader(bw *bufio.Writer, from, epoch, term uint64) error {
	hdr, err := json.Marshal(TailHeader{JournalStart: &from, Epoch: epoch, Term: term})
	if err != nil {
		return fmt.Errorf("repl: encode tail header: %w", err)
	}
	hdr = append(hdr, '\n')
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("repl: write tail: %w", err)
	}
	return nil
}

func writeTailRecord(bw *bufio.Writer, m *live.Mutation) error {
	buf, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("repl: encode tail record: %w", err)
	}
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return fmt.Errorf("repl: write tail: %w", err)
	}
	return nil
}

// ReadTail decodes a tail stream. On a clean stream it returns the
// header and every record. On a stream cut mid-record (or mid-read) it
// returns the complete prefix together with ErrTruncatedTail — never a
// half-parsed record — so a follower can apply what arrived and resume
// from the tear.
func ReadTail(r io.Reader) ([]live.Mutation, TailHeader, error) {
	var (
		hdr  TailHeader
		muts []live.Mutation
	)
	br := bufio.NewReaderSize(r, 64<<10)
	first := true
	for {
		line, err := readLine(br)
		if err != nil && !errors.Is(err, io.EOF) {
			return muts, hdr, fmt.Errorf("%w: %v", ErrTruncatedTail, err)
		}
		eof := errors.Is(err, io.EOF)
		complete := !eof
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			if !complete {
				// Data without a final newline: the stream tore inside
				// this record.
				return muts, hdr, ErrTruncatedTail
			}
			if first {
				if jerr := json.Unmarshal(trimmed, &hdr); jerr != nil || hdr.JournalStart == nil {
					return nil, hdr, fmt.Errorf("repl: tail stream has no header: %q", previewLine(trimmed))
				}
				first = false
			} else {
				var m live.Mutation
				if jerr := json.Unmarshal(trimmed, &m); jerr != nil || m.Op == "" {
					return muts, hdr, ErrTruncatedTail
				}
				muts = append(muts, m)
			}
		}
		if eof {
			if first {
				// Not even a header arrived.
				return nil, hdr, ErrTruncatedTail
			}
			return muts, hdr, nil
		}
	}
}

// readLine reads one '\n'-terminated line of bounded length. io.EOF
// (with any partial data) marks the end of the stream.
func readLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxTailLine {
			return nil, fmt.Errorf("repl: tail record exceeds %d bytes", maxTailLine)
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		return line, err
	}
}

func previewLine(b []byte) []byte {
	if len(b) > 80 {
		return b[:80]
	}
	return b
}
