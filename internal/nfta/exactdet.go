package nfta

import (
	"math/big"
	"sort"
	"strconv"
	"strings"
)

// ExactCountDet returns |L_n(T)| exactly via bottom-up determinization:
// the "type" of a tree is the set of states from which it is accepted,
// and two trees of the same type are interchangeable, so counting
// (type, size) multiplicities with a dynamic program counts distinct
// trees without enumerating them. On a weighted automaton the
// multiplicities are total weights, since a tree's weight depends only
// on its labels. Exponential in |S| in the worst case
// (types are subsets) but far more scalable than EnumerateTrees when
// few types are realized — e.g. gadget chains realize a handful of
// types at each size, so sizes in the hundreds are fine.
//
// The automaton must be λ-free.
func ExactCountDet(a *NFTA, n int) *big.Int {
	if a.HasLambda() {
		panic("nfta: ExactCountDet on automaton with λ-transitions")
	}
	if n <= 0 {
		return big.NewInt(0)
	}

	// Group transitions by (symbol, arity).
	type sa struct{ sym, arity int }
	bySA := make(map[sa][]Transition)
	for _, tr := range a.Transitions() {
		k := sa{tr.Sym, len(tr.Children)}
		bySA[k] = append(bySA[k], tr)
	}
	sas := make([]sa, 0, len(bySA))
	for k := range bySA {
		sas = append(sas, k)
	}
	sort.Slice(sas, func(i, j int) bool {
		if sas[i].sym != sas[j].sym {
			return sas[i].sym < sas[j].sym
		}
		return sas[i].arity < sas[j].arity
	})

	// counts[size] maps type-key -> (type, count).
	counts := make([]map[string]*detEntry, n+1)
	for i := range counts {
		counts[i] = make(map[string]*detEntry)
	}
	add := func(size int, typ []int, c *big.Int) {
		if len(typ) == 0 || c.Sign() == 0 {
			return
		}
		k := typeKey(typ)
		if e, ok := counts[size][k]; ok {
			e.count.Add(e.count, c)
		} else {
			counts[size][k] = &detEntry{typ: typ, count: new(big.Int).Set(c)}
		}
	}

	// resultType computes δ̂(a, σ₁…σ_k): the states q with a transition
	// (q, a, c) whose every child state lies in the corresponding type.
	resultType := func(trs []Transition, childTypes [][]int) []int {
		sets := make([]map[int]bool, len(childTypes))
		for i, t := range childTypes {
			sets[i] = make(map[int]bool, len(t))
			for _, q := range t {
				sets[i][q] = true
			}
		}
		var out []int
		seen := make(map[int]bool)
		for _, tr := range trs {
			if seen[tr.From] {
				continue
			}
			ok := true
			for i, c := range tr.Children {
				if !sets[i][c] {
					ok = false
					break
				}
			}
			if ok {
				seen[tr.From] = true
				out = append(out, tr.From)
			}
		}
		sort.Ints(out)
		return out
	}

	for size := 1; size <= n; size++ {
		for _, k := range sas {
			trs := bySA[k]
			if k.arity == 0 {
				if size == 1 {
					var typ []int
					for _, tr := range trs {
						typ = append(typ, tr.From)
					}
					sort.Ints(typ)
					typ = dedupSortedInts(typ)
					add(1, typ, a.symWeight(k.sym))
				}
				continue
			}
			// Distribute size−1 nodes over k ordered children, picking a
			// realized (type, size) entry for each.
			childTypes := make([][]int, k.arity)
			prod := a.symWeight(k.sym)
			var rec func(pos, remaining int, prod *big.Int)
			rec = func(pos, remaining int, prod *big.Int) {
				if pos == k.arity {
					if remaining != 0 {
						return
					}
					typ := resultType(trs, childTypes)
					add(size, typ, prod)
					return
				}
				minRest := k.arity - pos - 1 // each later child needs ≥1 node
				for csize := 1; csize <= remaining-minRest; csize++ {
					for _, e := range sortedEntries(counts[csize]) {
						childTypes[pos] = e.typ
						next := new(big.Int).Mul(prod, e.count)
						rec(pos+1, remaining-csize, next)
					}
				}
			}
			rec(0, size-1, prod)
		}
	}

	total := big.NewInt(0)
	for _, e := range counts[n] {
		for _, q := range e.typ {
			if q == a.Initial() {
				total.Add(total, e.count)
				break
			}
		}
	}
	return total
}

// detEntry is one (type, multiplicity) cell of the determinization DP.
type detEntry struct {
	typ   []int
	count *big.Int
}

// sortedEntries returns the entries in deterministic key order.
func sortedEntries(m map[string]*detEntry) []*detEntry {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*detEntry, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func typeKey(typ []int) string {
	var b strings.Builder
	for _, q := range typ {
		b.WriteString(strconv.Itoa(q))
		b.WriteByte(',')
	}
	return b.String()
}

func dedupSortedInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
