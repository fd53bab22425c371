package reduction

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pqe/internal/count"
	"pqe/internal/cq"
	"pqe/internal/hypertree"
	"pqe/internal/nfta"
	"pqe/internal/pdb"
	"pqe/internal/union"
)

func TestDecodeTreeInvertsEncode(t *testing.T) {
	q := cq.PathQuery("R", 3)
	d := pdb.FromFacts(
		pdb.NewFact("R1", "a", "b"),
		pdb.NewFact("R2", "b", "c"),
		pdb.NewFact("R2", "b", "x"),
		pdb.NewFact("R3", "c", "d"),
	)
	ur := buildURFor(t, q, d)
	n := d.Size()
	mask := make([]bool, n)
	for m := 0; m < 1<<uint(n); m++ {
		for i := range mask {
			mask[i] = m&(1<<uint(i)) != 0
		}
		tree, err := ur.EncodeSubinstance(mask)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ur.DecodeTree(tree)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := range mask {
			if got[i] != mask[i] {
				t.Fatalf("round trip failed at mask %v: got %v", mask, got)
			}
		}
	}
}

func TestDecodeTreeSkipsDigits(t *testing.T) {
	// Weighted automaton trees contain digit nodes; decoding must skip
	// them and still recover the subinstance.
	q := cq.PathQuery("R", 2)
	h := pdb.Empty()
	h.Add(pdb.NewFact("R1", "a", "b"), pdb.NewProb(2, 3))
	h.Add(pdb.NewFact("R2", "b", "c"), pdb.NewProb(3, 5))
	ur := buildURFor(t, q, h.DB())
	weighted, err := WeightUR(ur, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tree := count.SampleTree(weighted.Auto, weighted.TreeSize, union.Options{Seed: int64(i + 1)})
		if tree == nil {
			t.Fatal("nil sample")
		}
		mask, err := ur.DecodeTree(tree)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !cq.Satisfies(h.DB().Subinstance(mask), q) {
			t.Errorf("decoded subinstance %v does not satisfy the query", mask)
		}
	}
}

func TestDecodeTreeRejectsMalformed(t *testing.T) {
	q := cq.PathQuery("R", 2)
	d := pdb.FromFacts(
		pdb.NewFact("R1", "a", "b"),
		pdb.NewFact("R2", "b", "c"),
	)
	ur := buildURFor(t, q, d)
	// A tree mentioning only one fact: missing-fact error.
	sym, ok := ur.Symbols.Lookup("R1(a,b)")
	if !ok {
		t.Fatal("symbol missing")
	}
	if _, err := ur.DecodeTree(nfta.Leaf(sym)); err == nil {
		t.Error("tree with missing facts decoded")
	}
	// A tree mentioning a fact twice: duplicate error.
	dup := nfta.Path([]int{sym, sym})
	if _, err := ur.DecodeTree(dup); err == nil {
		t.Error("tree with duplicate facts decoded")
	}
}

// Property: on random small instances, every satisfying mask encodes to
// an accepted tree that decodes back to itself.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := cq.PathQuery("R", 2+rng.Intn(2))
		d := randomGraphDB(rng, q.Len(), 1+rng.Intn(2), 3)
		dec, err := decomposeFor(q)
		if err != nil {
			return false
		}
		ur, err := BuildUR(q, d, dec)
		if err != nil {
			return false
		}
		n := d.Size()
		mask := make([]bool, n)
		for m := 0; m < 1<<uint(n); m++ {
			for i := range mask {
				mask[i] = m&(1<<uint(i)) != 0
			}
			tree, err := ur.EncodeSubinstance(mask)
			if err != nil {
				return false
			}
			got, err := ur.DecodeTree(tree)
			if err != nil {
				return false
			}
			for i := range mask {
				if got[i] != mask[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// decomposeFor is a test helper mirroring buildURFor without testing.T.
func decomposeFor(q *cq.Query) (*hypertree.Decomposition, error) {
	return hypertree.Decompose(q)
}
