package engine

import (
	"sapspsgd/internal/core"
)

// PhasedTransport is the one-way data plane every pattern's phase program
// runs on: Send deposits a payload into the from→to FIFO without waiting for
// a reciprocal payload, and Recv takes the oldest deposit from the
// peer→self FIFO. *memtransport.Hub implements it in process; the TCP
// worker implements it over one connection per payload. The engine's
// runtimes require it: engine.New rejects a Transport without it.
//
// Send must not wait for the receiver's Recv (a bounded buffer suffices in
// process, where phase barriers bound the deposits outstanding per pair; TCP
// reads every inbound payload as it arrives). Recv must block until the
// matching deposit arrives: when a pattern fuses adjacent phases
// (PhaseFuser) the runtime elides the barrier between them, and a TCP worker
// runs its phases with no barrier at all, so a receive may run before the
// peer's send and synchronizes on the FIFO itself. Every Recv still consumes
// a deposit made in a strictly earlier phase of the same round, so waits
// only ever point at earlier phases and a conforming phase program cannot
// deadlock (see Pattern).
type PhasedTransport interface {
	Send(round, from, to int, payload []float64) error
	Recv(round, from, to int) ([]float64, error)
}

// PhaseFuser is an optional Pattern extension for barrier elision: a false
// entry in PhaseDeps tells the sharded runtime that the boundary between
// phases p and p+1 needs no barrier, so the two phases fuse into one
// dispatch per shard. A boundary may be declared fusable only when (a) every
// buffer a rank deposits before the boundary stays unwritten by its owner
// until the round completes (receivers may still be reading it), and (b) all
// post-boundary receives tolerate blocking in Recv for the deposit (see
// PhasedTransport). Patterns that rewrite their send scratch phase over
// phase — the butterfly collective — must not fuse.
type PhaseFuser interface {
	// PhaseDeps appends PhaseCount-1 booleans to deps, one per adjacent
	// phase boundary in order: true keeps the barrier, false fuses.
	PhaseDeps(plan core.RoundPlan, n int, deps []bool) []bool
}

// PhaseParticipants is an optional Pattern extension for dispatch elision:
// PhaseRanks names the half-open rank interval [lo, hi) that has work in a
// phase, and the runtime skips shards entirely outside it (their reports
// read as zero for the round unless another phase involves them).
// Over-approximating is always safe — RunPhase on a rank with nothing to do
// is a no-op.
type PhaseParticipants interface {
	PhaseRanks(plan core.RoundPlan, n int, phase int) (lo, hi int)
}

// PhaseState carries one rank's in-flight round state across the round's
// phases. The sharded runtime owns one per rank and recycles it round over
// round via reset, so all scratch below keeps its capacity and a
// steady-state round allocates nothing. The zero value is ready for a
// round.
type PhaseState struct {
	// Rep accumulates the rank's NodeReport across phases.
	Rep NodeReport

	skip   bool      // round finished early (e.g. unmatched pairwise rank)
	sent   int64     // wire bytes of the in-flight outbound payload
	vec    []float64 // running sum (collective / all-gather)
	msgs   []PeerMsg // pending merge messages
	lo, hi int       // owned segment (halving/doubling)
	peers  []int     // chosen-worker scratch (hub server)

	// dec is the single-slot decode scratch for payloads consumed within
	// the same phase; decBufs hold per-message decodes that must stay alive
	// together until a Merge. Both only ever store buffers produced by a
	// codec's DecodeInto — a plain Decode result may alias the sender's
	// storage, which the receiver must never write into.
	dec     []float64
	decBufs [][]float64
	decUsed int

	// wbufs double-buffer the butterfly's outbound chunk words by phase
	// parity: a deposit made in phase p is drained in p+1, so under the
	// sharded runtime's barriers its buffer is reusable at p+2 — which is
	// exactly when the parity index repeats. A TCP worker runs without
	// barriers, but its Send has serialized the payload before returning.
	wbufs [2][]float64
}

// reset prepares the state for a new round, keeping every buffer's capacity.
func (st *PhaseState) reset() {
	st.Rep = NodeReport{Flows: st.Rep.Flows[:0]}
	st.skip = false
	st.sent = 0
	st.vec = st.vec[:0]
	st.msgs = st.msgs[:0]
	st.lo, st.hi = 0, 0
	st.decUsed = 0
}

// decodeScratch decodes words with c into the single-slot scratch when the
// codec supports DecodeInto. The result is only valid until the next
// decodeScratch call on the same state — callers consume it immediately.
func (st *PhaseState) decodeScratch(c Codec, ctx RoundContext, words []float64) ([]float64, error) {
	if d, ok := c.(DecoderInto); ok {
		out, err := decodeIntoTimed(d, st.dec, ctx, words)
		if err != nil {
			return nil, err
		}
		st.dec = out
		return out, nil
	}
	return decodeTimed(c, ctx, words)
}

// decodeMsg decodes words into the next pooled per-message buffer; results
// from consecutive calls stay valid together until the round's Merge. Codecs
// without DecodeInto fall back to Decode and their result is not pooled (it
// may alias sender-owned storage).
func (st *PhaseState) decodeMsg(c Codec, ctx RoundContext, words []float64) ([]float64, error) {
	d, ok := c.(DecoderInto)
	if !ok {
		return decodeTimed(c, ctx, words)
	}
	if st.decUsed == len(st.decBufs) {
		st.decBufs = append(st.decBufs, nil)
	}
	out, err := decodeIntoTimed(d, st.decBufs[st.decUsed], ctx, words)
	if err != nil {
		return nil, err
	}
	st.decBufs[st.decUsed] = out
	st.decUsed++
	return out, nil
}

// mergeOne hands a single peer message to the node through the pooled
// message slice.
func (st *PhaseState) mergeOne(ctx RoundContext, node Node, msg PeerMsg) error {
	st.msgs = append(st.msgs[:0], msg)
	return node.Merge(ctx, st.msgs)
}

// sendChunk encodes vec[lo:hi] and deposits a copy of the words with
// partner. The copy lands in the phase-parity wire buffer (see wbufs):
// the codec's own scratch is rewritten by the next step's encode.
func (st *PhaseState) sendChunk(ctx RoundContext, codecs []Codec, tr PhasedTransport, lo, hi, partner, p int) error {
	words, err := encodeTimed(codecs[ctx.Self], ctx, st.vec[lo:hi])
	if err != nil {
		return err
	}
	w := append(st.wbufs[p&1][:0], words...)
	st.wbufs[p&1] = w
	st.sent = codecs[ctx.Self].WireBytes(w)
	return tr.Send(ctx.Round, ctx.Self, partner, w)
}

// recvChunk drains partner's deposit and decodes it. The flow pairs this
// receive with the bytes of the chunk sent to the same partner one phase
// earlier. The returned values live in the single-slot decode scratch (or
// the sender's deposit, for identity codecs) and are consumed before the
// phase ends.
func (st *PhaseState) recvChunk(ctx RoundContext, codecs []Codec, tr PhasedTransport, partner int) ([]float64, error) {
	pw, err := tr.Recv(ctx.Round, ctx.Self, partner)
	if err != nil {
		return nil, err
	}
	vals, err := st.decodeScratch(codecs[partner], ctx, pw)
	if err != nil {
		return nil, err
	}
	st.Rep.Flows = append(st.Rep.Flows, Flow{Peer: partner, Sent: st.sent, Recv: codecs[partner].WireBytes(pw)})
	return vals, nil
}
