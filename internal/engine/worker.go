package engine

// WorkerRound executes one rank's full round outside the in-process
// runtimes — the TCP worker's entry point: it runs the pattern's phases
// 0 … PhaseCount-1 in order on a fresh PhaseState. This is safe without
// barriers because every Recv consumes a deposit its peer made in an earlier
// phase (see Pattern), provided tr's Send has finished reading the payload
// when it returns: with no barrier, a rank may rewrite a buffer it deposited
// before the peer has received it (the butterfly's chunk buffers do).
//
// pat nil defaults to the pairwise matched-gossip pattern. codecs is the
// shared per-rank codec table: the node encodes with codecs[ctx.Self] and
// decodes inbound payloads with the sender's codec.
func WorkerRound(node Node, pat Pattern, codecs []Codec, tr PhasedTransport, ctx RoundContext) (NodeReport, error) {
	if pat == nil {
		pat = Pairwise{}
	}
	var st PhaseState
	for p, phases := 0, pat.PhaseCount(ctx.Plan, ctx.N); p < phases; p++ {
		if err := pat.RunPhase(ctx, p, node, codecs, tr, &st); err != nil {
			return NodeReport{}, err
		}
	}
	return st.Rep, nil
}
