package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// kind names the layer boundary a span was recorded at. Each kind's parent
// is fixed (see parentOf), so the span tree of a round is implied by the
// kinds and the shared round index.
type kind uint8

const (
	kRound    kind = iota // one Driver.Round (or planner-only loop body)
	kPlan                 // core.Coordinator.Plan via engine.Planner
	kRunRound             // engine.Engine.RunRound via engine.Control
	kCharge               // engine.Ledger.Exchange (netsim.Ledger)
	kEndRound             // engine.Ledger.EndRound (netsim.Ledger)
	kMask                 // compress.MaskInto (planner-only path)
	kCompute              // engine.Node.Compute (local SGD in nn)
	kEncode               // engine.Codec.Encode
	kDecode               // engine.Codec.Decode / engine.DecoderInto.DecodeInto
	kMerge                // engine.Node.Merge
	kSnapshot             // engine.AsyncNode.Snapshot
	kSend                 // engine.PhasedTransport.Send (memtransport.Hub)
	kRecv                 // engine.PhasedTransport.Recv (memtransport.Hub)
	kExchange             // engine.Transport.Exchange (memtransport.Hub)
	kAsyncRun             // engine.AsyncEngine.Run
	numKinds
)

var kindNames = [numKinds]string{
	"round", "plan", "run_round", "ledger_charge", "ledger_end_round", "mask",
	"compute", "encode", "decode", "merge", "snapshot", "send", "recv", "exchange", "async_run",
}

// parentOf is the span kind that causes each kind: coordinator calls sit
// inside a round, rank calls inside the engine's RunRound (or the async
// engine's Run).
func parentOf(k kind, async bool) string {
	switch k {
	case kRound, kAsyncRun:
		return ""
	case kPlan, kRunRound, kCharge, kEndRound, kMask:
		return kindNames[kRound]
	}
	if async {
		return kindNames[kAsyncRun]
	}
	return kindNames[kRunRound]
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin on the monotonic clock.
type span struct {
	kind       kind
	rank       int32 // -1 for coordinator-side spans
	round      int32 // -1 when the call carries no round
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends. Coordinator spans go
// to one buffer; rank spans go to a buffer per rank, appended only by the
// goroutine executing that rank (a shard executor or the async engine), so
// recording takes no lock.
type tracer struct {
	origin time.Time
	coord  []span
	ranks  [][]span
	// round is the coordinator's current round, for coordinator calls
	// (ledger charges) whose arguments do not carry it. Written and read
	// only on the coordinator goroutine.
	round int32
}

func newTracer(ranks int) *tracer {
	return &tracer{origin: time.Now(), ranks: make([][]span, ranks)}
}

// now reads the tracer's clock. A nil tracer records nothing, so code
// shared by the untraced and traced runs can call it unconditionally.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// coordSpan closes a coordinator-side span begun at start.
func (t *tracer) coordSpan(k kind, round int32, start int64) {
	if t == nil {
		return
	}
	t.coord = append(t.coord, span{kind: k, rank: -1, round: round, start: start, end: t.now()})
}

// rankSpan closes a span begun at start on rank's buffer.
func (t *tracer) rankSpan(k kind, rank, round int, start int64) {
	t.ranks[rank] = append(t.ranks[rank], span{kind: k, rank: int32(rank), round: int32(round), start: start, end: t.now()})
}

// all returns every recorded span, coordinator first then rank by rank.
func (t *tracer) all() []span {
	n := len(t.coord)
	for _, b := range t.ranks {
		n += len(b)
	}
	out := make([]span, 0, n)
	out = append(out, t.coord...)
	for _, b := range t.ranks {
		out = append(out, b...)
	}
	return out
}

// writeCSV writes the spans to path, one row per span.
func (t *tracer) writeCSV(path string, async bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,rank,span,parent,start_ns,end_ns")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", s.round, s.rank, kindNames[s.kind], parentOf(s.kind, async), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
