package engine_test

import (
	"testing"

	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/engine/memtransport"
)

// TestHubSendRecvFIFO pins the one-way primitives every runtime uses:
// deposits drain in FIFO order per directed pair, independently per
// direction, and rank validation matches Exchange.
func TestHubSendRecvFIFO(t *testing.T) {
	h := memtransport.NewHub(3)
	if err := h.Send(0, 0, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(0, 0, 1, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(0, 2, 1, []float64{3}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		from int
		v    float64
	}{{0, 1}, {0, 2}, {2, 3}} {
		got, err := h.Recv(0, 1, want.from)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want.v {
			t.Fatalf("recv %d: got %v, want [%v]", i, got, want.v)
		}
	}
	if err := h.Send(0, 0, 0, nil); err == nil {
		t.Fatal("self-send accepted")
	}
	if _, err := h.Recv(0, 1, 3); err == nil {
		t.Fatal("out-of-range recv accepted")
	}
}

// exchangeOnly hides the Hub's phased methods, modelling a custom transport
// written against Exchange alone.
type exchangeOnly struct{ hub *memtransport.Hub }

func (e exchangeOnly) Exchange(round, self, peer int, payload []float64) ([]float64, error) {
	return e.hub.Exchange(round, self, peer, payload)
}

// TestNewRejectsExchangeOnlyTransport: every pattern runs as a phase
// program over Send/Recv, so engine.New must refuse a transport that only
// offers Exchange rather than fail mid-round.
func TestNewRejectsExchangeOnlyTransport(t *testing.T) {
	const n = 4
	spec := testSpec(1)
	defer func() {
		if recover() == nil {
			t.Fatal("engine.New accepted a transport without PhasedTransport")
		}
	}()
	engine.New(engine.Options{
		Workers:   buildWorkers(t, spec, n),
		Planner:   core.NewCoordinator(testEnv(n), coreConfig(spec, n)),
		Transport: exchangeOnly{hub: memtransport.NewHub(n)},
	})
}
