package main

import (
	"sapspsgd/internal/compress"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
)

// The decorators below wrap the public layer interfaces the engine drives.
// Each one times the call it forwards and changes nothing else: arguments
// and results pass through untouched, so a traced fleet computes exactly
// what the untraced one does. The engine type-asserts optional interfaces
// (DecoderInto on codecs, PhasedTransport on the transport, AsyncNode on
// async nodes) and silently takes a slower path when they are missing, so
// every wrap function returns a decorator that keeps exactly the optional
// interfaces its argument has.

// tracedNode times engine.Node.Compute (local SGD, the nn layer) and
// engine.Node.Merge.
type tracedNode struct {
	inner engine.Node
	tr    *tracer
}

func (n *tracedNode) Compute(ctx engine.RoundContext) (float64, []float64, error) {
	s := n.tr.now()
	loss, out, err := n.inner.Compute(ctx)
	n.tr.rankSpan(kCompute, ctx.Self, ctx.Round, s)
	return loss, out, err
}

func (n *tracedNode) Merge(ctx engine.RoundContext, msgs []engine.PeerMsg) error {
	s := n.tr.now()
	err := n.inner.Merge(ctx, msgs)
	n.tr.rankSpan(kMerge, ctx.Self, ctx.Round, s)
	return err
}

// tracedAsyncNode adds engine.AsyncNode.Snapshot. Snapshot carries no
// context, so the wrapper remembers its rank.
type tracedAsyncNode struct {
	tracedNode
	snap engine.AsyncNode
	rank int
}

func (n *tracedAsyncNode) Snapshot() []float64 {
	s := n.tr.now()
	out := n.snap.Snapshot()
	n.tr.rankSpan(kSnapshot, n.rank, -1, s)
	return out
}

func wrapNode(n engine.Node, rank int, tr *tracer) engine.Node {
	if a, ok := n.(engine.AsyncNode); ok {
		return &tracedAsyncNode{tracedNode: tracedNode{inner: n, tr: tr}, snap: a, rank: rank}
	}
	return &tracedNode{inner: n, tr: tr}
}

// codecBytes accumulates one codec's encoded wire bytes against the dense
// bytes it was asked to encode. Encode runs only on the owning rank's
// executor, so the counters need no synchronization.
type codecBytes struct {
	wire, dense int64
}

// tracedCodec times engine.Codec.Encode (on the owning rank) and Decode (on
// the receiving rank, ctx.Self).
type tracedCodec struct {
	inner engine.Codec
	tr    *tracer
	bytes codecBytes
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) Encode(ctx engine.RoundContext, dense []float64) ([]float64, error) {
	s := c.tr.now()
	words, err := c.inner.Encode(ctx, dense)
	c.tr.rankSpan(kEncode, ctx.Self, ctx.Round, s)
	if err == nil {
		c.bytes.wire += c.inner.WireBytes(words)
		c.bytes.dense += compress.DenseBytes(len(dense))
	}
	return words, err
}

func (c *tracedCodec) Decode(ctx engine.RoundContext, words []float64) ([]float64, error) {
	s := c.tr.now()
	out, err := c.inner.Decode(ctx, words)
	c.tr.rankSpan(kDecode, ctx.Self, ctx.Round, s)
	return out, err
}

func (c *tracedCodec) WireBytes(words []float64) int64 { return c.inner.WireBytes(words) }

func (c *tracedCodec) counters() *codecBytes { return &c.bytes }

// tracedDecoderInto adds engine.DecoderInto, the sharded runtime's
// allocation-free decode.
type tracedDecoderInto struct {
	tracedCodec
	into engine.DecoderInto
}

func (c *tracedDecoderInto) DecodeInto(dst []float64, ctx engine.RoundContext, words []float64) ([]float64, error) {
	s := c.tr.now()
	out, err := c.into.DecodeInto(dst, ctx, words)
	c.tr.rankSpan(kDecode, ctx.Self, ctx.Round, s)
	return out, err
}

// countedCodec is what every codec wrapper offers the report.
type countedCodec interface {
	counters() *codecBytes
}

func wrapCodec(c engine.Codec, tr *tracer) engine.Codec {
	if d, ok := c.(engine.DecoderInto); ok {
		return &tracedDecoderInto{tracedCodec: tracedCodec{inner: c, tr: tr}, into: d}
	}
	return &tracedCodec{inner: c, tr: tr}
}

// tracedTransport times engine.Transport.Exchange (memtransport.Hub's
// blocking rendezvous).
type tracedTransport struct {
	inner engine.Transport
	tr    *tracer
}

func (t *tracedTransport) Exchange(round, self, peer int, payload []float64) ([]float64, error) {
	s := t.tr.now()
	out, err := t.inner.Exchange(round, self, peer, payload)
	t.tr.rankSpan(kExchange, self, round, s)
	return out, err
}

// tracedPhased adds engine.PhasedTransport, without which the engine drops
// from the sharded runtime to the blocking pool.
type tracedPhased struct {
	tracedTransport
	phased engine.PhasedTransport
}

func (t *tracedPhased) Send(round, self, peer int, payload []float64) error {
	s := t.tr.now()
	err := t.phased.Send(round, self, peer, payload)
	t.tr.rankSpan(kSend, self, round, s)
	return err
}

func (t *tracedPhased) Recv(round, self, peer int) ([]float64, error) {
	s := t.tr.now()
	out, err := t.phased.Recv(round, self, peer)
	t.tr.rankSpan(kRecv, self, round, s)
	return out, err
}

func wrapTransport(t engine.Transport, tr *tracer) engine.Transport {
	if p, ok := t.(engine.PhasedTransport); ok {
		return &tracedPhased{tracedTransport: tracedTransport{inner: t, tr: tr}, phased: p}
	}
	return &tracedTransport{inner: t, tr: tr}
}

// tracedPlanner times engine.Planner.Plan — core.Coordinator.Plan, which
// runs Algorithm 3 in the gossip package.
type tracedPlanner struct {
	inner engine.Planner
	tr    *tracer
}

func (p *tracedPlanner) Plan(t int) core.RoundPlan {
	s := p.tr.now()
	plan := p.inner.Plan(t)
	p.tr.coordSpan(kPlan, int32(t), s)
	return plan
}

// tracedControl times engine.Control.RunRound: the whole data plane of one
// round on the engine's runtime.
type tracedControl struct {
	inner engine.Control
	tr    *tracer
}

func (c *tracedControl) RunRound(plan core.RoundPlan) (engine.ControlReport, error) {
	s := c.tr.now()
	rep, err := c.inner.RunRound(plan)
	c.tr.coordSpan(kRunRound, int32(plan.Round), s)
	return rep, err
}

// tracedLedger times engine.Ledger.Exchange and EndRound (netsim.Ledger).
type tracedLedger struct {
	inner engine.Ledger
	tr    *tracer
}

func (l *tracedLedger) Exchange(i, j int, sendBytes, recvBytes int64) {
	s := l.tr.now()
	l.inner.Exchange(i, j, sendBytes, recvBytes)
	l.tr.coordSpan(kCharge, l.tr.round, s)
}

func (l *tracedLedger) EndRound() float64 {
	s := l.tr.now()
	secs := l.inner.EndRound()
	l.tr.coordSpan(kEndRound, l.tr.round, s)
	return secs
}
