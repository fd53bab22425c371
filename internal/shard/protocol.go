// Package shard distributes the FPRAS trial schedule across worker
// processes. A coordinator (Pool) runs the schedule through the same
// trial driver the engines use locally (internal/trial): each batch
// the driver asks for — the whole fixed range, or one deterministic
// anytime batch — is cut into contiguous sub-ranges and dispatched to
// workers (Server) over a zero-dependency length-prefixed JSON protocol
// on TCP, and the driver merges the per-trial estimates.
//
// Determinism contract: every trial's PRNG streams derive from
// (seed, site, index) — never from the schedule, the partition, or the
// worker that ran it (see internal/splitmix) — and estimates travel as
// exact (mantissa bits, exponent) pairs. The merged estimate is
// therefore byte-for-byte equal to the single-process run at any
// worker count, including after a mid-call range reassignment.
//
// Wire format: each message is one frame — a 4-byte big-endian length
// followed by that many bytes of JSON. Requests carry an op ("hello"
// to handshake, "session" to install an instance, "count" to execute a
// trial range); responses carry ok/err plus the estimates as parallel
// mantissa-bits and exponent arrays. Sessions are keyed by a content
// hash of (query, db, max width), so a worker that evicted a session
// (LRU) or restarted just reports errUnknownSession and the
// coordinator re-installs it and retries.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"pqe/internal/core"
)

// ProtocolVersion is bumped on any incompatible wire change; the hello
// handshake rejects mismatched peers.
const ProtocolVersion = 1

// maxFrame bounds one frame's payload. Instances ship as text in
// session frames, so the bound is generous; anything larger is a
// protocol error, not a bigger allocation.
const maxFrame = 64 << 20

// errUnknownSession is the sentinel a worker reports when a count
// request names a session it does not hold (evicted or restarted). The
// coordinator reacts by re-installing the session and retrying.
const errUnknownSession = "unknown session"

// request is one coordinator→worker message.
type request struct {
	Op      string `json:"op"`                // "hello" | "session" | "count"
	Version int    `json:"version,omitempty"` // hello
	Session string `json:"session,omitempty"` // session, count: spec key

	// session: the instance, in the public text formats.
	Query    string `json:"query,omitempty"`
	DB       string `json:"db,omitempty"`
	MaxWidth int    `json:"max_width,omitempty"`

	// count: the resolved schedule and the trial range to execute.
	Mode    string  `json:"mode,omitempty"`
	N       int     `json:"n,omitempty"`
	States  int     `json:"states,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	Trials  int     `json:"trials,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Lo      int     `json:"lo"`
	Hi      int     `json:"hi"`
}

// response is one worker→coordinator message. Estimates travel as
// parallel arrays of IEEE-754 mantissa bits and binary exponents
// (efloat.E.Bits), because JSON float text does not round-trip bits.
type response struct {
	OK      bool     `json:"ok"`
	Err     string   `json:"err,omitempty"`
	Version int      `json:"version,omitempty"`
	Mant    []uint64 `json:"mant,omitempty"`
	Exp     []int64  `json:"exp,omitempty"`
}

// spec converts a count request back to the core spec a worker hands
// its session.
func (r *request) spec() core.ShardSpec {
	return core.ShardSpec{
		Mode:    r.Mode,
		N:       r.N,
		States:  r.States,
		Epsilon: r.Epsilon,
		Trials:  r.Trials,
		Samples: r.Samples,
		Seed:    r.Seed,
	}
}

// SpecKey is the session cache key of a spec's instance: a content
// hash of (query, db, max width). Coordinator and workers derive it
// independently from the same fields.
func SpecKey(query, db string, maxWidth int) string {
	h := sha256.New()
	io.WriteString(h, query)
	h.Write([]byte{0})
	io.WriteString(h, db)
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d", maxWidth)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// writeFrame sends one length-prefixed JSON message. A zero deadline
// means no deadline.
func writeFrame(conn net.Conn, v any, deadline time.Time) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = conn.Write(buf)
	return err
}

// readFrame receives one length-prefixed JSON message into v. A zero
// deadline means no deadline.
func readFrame(conn net.Conn, v any, deadline time.Time) error {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}
