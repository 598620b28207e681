// Engine backends: the same SAPS-PSGD configuration executed three times —
// in memory, in memory with a simulated-bandwidth ledger, and as a real TCP
// cluster on loopback — by the one canonical engine round loop.
// The run prints each backend's final model checksum and per-round traffic,
// which agree bit-for-bit and byte-for-byte (DESIGN.md §2).
//
//	go run ./examples/enginebackends
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	saps "sapspsgd"
	"sapspsgd/internal/core"
	"sapspsgd/internal/engine"
	"sapspsgd/internal/gossip"
	"sapspsgd/internal/netsim"
	"sapspsgd/internal/rng"
	"sapspsgd/internal/transport"
)

const (
	n      = 4
	rounds = 30
)

func spec() saps.TaskSpec {
	return saps.TaskSpec{
		Arch: "mlp", C: 1, H: 8, W: 8, Classes: 4, Hidden: []int{16},
		Samples: 512, DataSeed: 21,
		LR: 0.05, Batch: 16, Compression: 10, LocalSteps: 1,
		Rounds: rounds, Seed: 9,
	}
}

func config() core.Config {
	s := spec()
	return core.Config{
		Workers: n, Compression: s.Compression, LR: s.LR, Batch: s.Batch,
		LocalSteps: s.LocalSteps, Gossip: gossip.Config{BThres: 0, TThres: 10},
		Seed: s.Seed,
	}
}

func env() *netsim.Bandwidth { return netsim.RandomUniform(n, 1, 5, rng.New(4)) }

// checksum folds a parameter vector into one printable number.
func checksum(params []float64) float64 {
	sum := 0.0
	for _, v := range params {
		sum += math.Abs(v)
	}
	return sum
}

// runInProc drives the engine over an in-process transport and returns the
// rank-0 parameters and total traffic.
func runInProc(name string, tr saps.EngineTransport, inner saps.EngineLedger) ([]float64, int64) {
	s := spec()
	shards, _ := s.BuildShards(n)
	workers := make([]*core.Worker, n)
	for i := range workers {
		model, err := s.BuildModel()
		if err != nil {
			log.Fatal(err)
		}
		workers[i] = core.NewWorker(i, model, shards[i], config())
	}
	eng := saps.NewEngine(saps.EngineOptions{
		Workers:   workers,
		Planner:   core.NewCoordinator(env(), config()),
		Transport: tr,
	})
	defer eng.Close()
	led := &saps.CountingLedger{Inner: inner}
	for t := 0; t < rounds; t++ {
		if _, err := eng.Step(t, led); err != nil {
			log.Fatalf("%s round %d: %v", name, t, err)
		}
	}
	return workers[0].Params(), led.TotalBytes()
}

// runTCP drives the identical configuration as a real loopback TCP cluster.
func runTCP() ([]float64, int64) {
	led := &engine.CountingLedger{}
	srv := &saps.CoordinatorServer{N: n, Task: spec(), BW: env(), Gossip: config().Gossip, Ledger: led}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &transport.WorkerClient{}
			if _, err := wc.Run(addr, "127.0.0.1:0"); err != nil {
				log.Printf("worker: %v", err)
			}
		}()
	}
	params, err := srv.Run()
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return params, led.TotalBytes()
}

func main() {
	memParams, memBytes := runInProc("memtransport", saps.NewMemTransport(n), nil)
	fmt.Printf("%-14s checksum %.9f   traffic %6d B\n", "memtransport", checksum(memParams), memBytes)

	hub, simLed := saps.NewSimTransport(env())
	simParams, simBytes := runInProc("mem+netsim", hub, simLed)
	fmt.Printf("%-14s checksum %.9f   traffic %6d B   simulated comm time %.2fs\n",
		"mem+netsim", checksum(simParams), simBytes, simLed.TotalTime())

	tcpParams, tcpBytes := runTCP()
	fmt.Printf("%-14s checksum %.9f   traffic %6d B\n", "tcptransport", checksum(tcpParams), tcpBytes)

	for i, v := range memParams {
		if simParams[i] != v || tcpParams[i] != v {
			log.Fatalf("backends diverged at parameter %d", i)
		}
	}
	if memBytes != simBytes || memBytes != tcpBytes {
		log.Fatalf("traffic diverged: mem %d, sim %d, tcp %d", memBytes, simBytes, tcpBytes)
	}
	fmt.Println("\nall three backends: bit-identical models, byte-identical traffic ✓")
}
