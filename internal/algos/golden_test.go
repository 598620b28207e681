//go:build linux && amd64 && !amd64.v3

// Golden-trajectory oracle: a fixed digest of every baseline's model
// trajectory and ledger traffic, recorded once and compared on every run.
// The equivalence suites check that runtimes agree with each other; this
// test checks that they all still agree with the recorded history, so a
// change that moves every runtime the same way is caught too.
//
// The digests pin exact float64 bits, so the file only builds where the
// recording was made: linux/amd64 at GOAMD64 below v3 (v3 and other
// architectures may fuse multiply-adds and legitimately round differently).
package algos

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sapspsgd/internal/engine"
)

// goldenDigests maps each golden run to its recorded digest.
var goldenDigests = map[string]uint64{
	"PSGD":         0x844ee267b49c10c5,
	"TopK-PSGD":    0x640c2615f36e57b4,
	"QSGD-PSGD":    0x1b3a00cb185379fc,
	"FedAvg":       0x0fd7544b151dda4f,
	"S-FedAvg":     0x4f01c89aba5e8a2b,
	"D-PSGD":       0xc6c7cefed7259619,
	"DCD-PSGD":     0x19480d424367ed10,
	"PS-PSGD":      0xcf933583c0f97733,
	"SAPS-PSGD":    0xee950ebfea4047f9,
	"RandomChoose": 0x5ecdbf4b13a28ef4,
	"SAPS-churn":   0x1d125a5fd824edd5,
	"PSGD-n6":      0xac1f41abd0b3fc40,
}

// goldenDigest steps alg for rounds against a counting ledger and folds,
// after every round, each model's parameter bits, the round's byte total,
// and every worker's cumulative sent/received bytes (ranks 0..n, so the hub
// server's account is covered) into an FNV-64a hash.
func goldenDigest(alg Algorithm, n, rounds int) uint64 {
	h := fnv.New64a()
	led := &engine.CountingLedger{}
	for r := 0; r < rounds; r++ {
		alg.Step(r, led)
		for _, m := range alg.Models() {
			for _, v := range m.FlatParams(nil) {
				writeU64(h, math.Float64bits(v))
			}
		}
		writeU64(h, uint64(led.RoundBytes()[r]))
		for i := 0; i <= n; i++ {
			s, rv := led.WorkerBytes(i)
			writeU64(h, uint64(s))
			writeU64(h, uint64(rv))
		}
	}
	return h.Sum64()
}

func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestGoldenTrajectories runs every baseline over 4 rounds at n=8, SAPS
// under churn, and the non-power-of-two collective, on the default runtime,
// and compares each digest with the recorded one.
func TestGoldenTrajectories(t *testing.T) {
	type run struct {
		name      string
		n, rounds int
		build     func(fc FleetConfig) Algorithm
	}
	var runs []run
	for _, b := range allBaselineBuilders(8) {
		b := b
		runs = append(runs, run{b.name, 8, 4, func(fc FleetConfig) Algorithm {
			_, bw, _ := testSetup(t, 8)
			return b.build(fc, bw)
		}})
	}
	runs = append(runs,
		run{"SAPS-churn", 8, 6, func(fc FleetConfig) Algorithm {
			_, bw, _ := testSetup(t, 8)
			churn := ChurnModel{LeaveProb: 0.3, JoinProb: 0.5, MinActive: 2}
			return NewSAPSChurn(fc, bw, sapsConfig(8), churn)
		}},
		run{"PSGD-n6", 6, 4, func(fc FleetConfig) Algorithm { return NewPSGD(fc) }},
	)
	for _, r := range runs {
		fc, _, _ := testSetup(t, r.n)
		got := goldenDigest(r.build(fc), r.n, r.rounds)
		if want, ok := goldenDigests[r.name]; !ok || got != want {
			t.Errorf("%s: digest %#016x, recorded %#016x", r.name, got, want)
		}
	}
}
