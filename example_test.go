package pqe_test

import (
	"fmt"
	"math/big"

	"pqe"
)

// The probability of a #P-hard chain query, approximated by the
// combined-complexity tree FPRAS and cross-checked exactly. The
// strategy is pinned: on an instance this small the default routing
// would answer exactly from the lineage.
func ExampleProbability() {
	q := pqe.MustParseQuery("R1(x1,x2), R2(x2,x3), R3(x3,x4)")
	db := pqe.NewDatabase()
	_ = db.AddFact("R1", big.NewRat(1, 2), "a", "b")
	_ = db.AddFact("R2", big.NewRat(2, 3), "b", "c")
	_ = db.AddFact("R3", big.NewRat(3, 4), "c", "d")

	exact, _ := pqe.BruteForceProbability(q, db)
	fmt.Println("exact:", exact.RatString())

	res, _ := pqe.Probability(q, db, &pqe.Options{Strategy: "force-nfta", Epsilon: 0.01, Seed: 1})
	fmt.Printf("estimate within 1%%: %v\n", res.Probability > 0.2 && res.Probability < 0.3)
	// Output:
	// exact: 1/4
	// estimate within 1%: true
}

// Safe (hierarchical) queries are answered exactly by a safe plan.
func ExampleExactProbability() {
	q := pqe.MustParseQuery("HighTemp(x), HighHumidity(x)")
	db := pqe.NewDatabase()
	_ = db.AddFact("HighTemp", big.NewRat(1, 2), "s1")
	_ = db.AddFact("HighHumidity", big.NewRat(1, 3), "s1")

	p, _ := pqe.ExactProbability(q, db)
	fmt.Println(p.RatString())
	// Output:
	// 1/6
}

// Classify reports the query's position in the paper's Table 1
// landscape.
func ExampleClassify() {
	sjf, bounded, safe, width := pqe.Classify(pqe.PathQuery("R", 3))
	fmt.Printf("self-join-free=%v bounded=%v safe=%v width=%d\n", sjf, bounded, safe, width)
	// Output:
	// self-join-free=true bounded=true safe=false width=1
}

// Lineage sizes grow exponentially with query length — the reason the
// intensional approach fails and this library exists.
func ExampleLineage() {
	q := pqe.MustParseQuery("R1(x,y), R2(y,z)")
	db := pqe.NewDatabase()
	for _, a := range []string{"p", "q"} {
		for _, b := range []string{"u", "v"} {
			_ = db.AddFact("R1", nil, a, b)
			_ = db.AddFact("R2", nil, b, a)
		}
	}
	info, _ := pqe.Lineage(q, db, 0)
	fmt.Printf("clauses=%d literals=%d\n", info.Clauses, info.Literals)
	// Output:
	// clauses=8 literals=16
}

// SampleWorld draws possible worlds conditioned on the query holding.
func ExampleSampleWorld() {
	q := pqe.MustParseQuery("R1(x,y), R2(y,z)")
	db := pqe.NewDatabase()
	_ = db.AddFact("R1", big.NewRat(1, 2), "a", "b")
	_ = db.AddFact("R2", big.NewRat(1, 2), "b", "c")

	w, _ := pqe.SampleWorld(q, db, &pqe.Options{Seed: 7})
	fmt.Println(w.Facts())
	// Output:
	// [R1(a,b) R2(b,c)]
}
