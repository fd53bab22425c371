package shard

import (
	"math"
	"testing"

	"pqe/internal/core"
	"pqe/internal/cq"
	"pqe/internal/gen"
	"pqe/internal/pdb"
)

// goldenRouted is a routed FPRAS shape of the pqed benchmark (the same
// generated instances as internal/core's golden table) with the
// literal Float64bits of its local routed "auto" estimate per seed.
type goldenRouted struct {
	name string
	q    *cq.Query
	h    *pdb.Probabilistic
	bits [2]uint64 // seeds 1, 2
}

func goldenRoutedShapes() []goldenRouted {
	path := cq.PathQuery("R", 3)
	tri := cq.CycleQuery("C", 3)
	return []goldenRouted{
		{"path3-half", path, gen.Instance(path, gen.Config{FactsPerRelation: 10, DomainSize: 4, Seed: 13}),
			[2]uint64{0x3fedceb4d32298f9, 0x3fede135ec136a67}},
		{"triangle-half", tri, gen.Instance(tri, gen.Config{FactsPerRelation: 9, DomainSize: 4, Seed: 21}),
			[2]uint64{0x3fe1fd70a3d70a3e, 0x3fe1afc962fc9630}},
	}
}

// TestGoldenShardedRouted pins the routed anytime estimates through a
// 2-worker pool to the same literals the local runs are pinned to, so a
// driver change that shifted every sharded estimate alike still fails.
func TestGoldenShardedRouted(t *testing.T) {
	addrs, stop := startWorkers(t, 2, ServerConfig{MaxProcs: 2})
	defer stop()
	pool, err := Dial(addrs, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, sh := range goldenRoutedShapes() {
		for seed := int64(1); seed <= 2; seed++ {
			res, err := core.Evaluate(sh.q, sh.h, core.Options{
				Epsilon: 0.1, Seed: seed, MaxProcs: 1, Strategy: "auto", Shard: pool,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			if got, want := math.Float64bits(res.Probability), sh.bits[seed-1]; got != want {
				t.Errorf("%s seed %d: sharded bits %#x (%v), want %#x (%v)", sh.name, seed,
					got, res.Probability, want, math.Float64frombits(want))
			}
		}
	}
	if st := pool.Stats(); st.TrialsDispatched == 0 {
		t.Errorf("no trials went through the pool: %+v", st)
	}
}
