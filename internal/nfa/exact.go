package nfa

import (
	"encoding/binary"
	"math/big"
	"sort"
)

// ExactCount returns |L_n(M)| exactly, via lazy subset construction:
// in the determinized automaton every distinct accepted word of length n
// is a distinct path from the initial subset to an accepting subset, so
// a depth-indexed DP over reachable subsets counts words without
// double-counting runs. On a weighted automaton it returns the total
// weight of L_n(M), each weight taken as the integer its efloat holds. Worst-case exponential in |S|; intended as a
// test oracle and for small automata.
func ExactCount(m *NFA, n int) *big.Int {
	memo := make(map[string]*big.Int)
	var keyBuf []byte
	var count func(states []int, left int) *big.Int
	count = func(states []int, left int) *big.Int {
		if len(states) == 0 {
			return big.NewInt(0)
		}
		if left == 0 {
			for _, q := range states {
				if m.final.Has(q) {
					return big.NewInt(1)
				}
			}
			return big.NewInt(0)
		}
		keyBuf = appendSubsetKey(keyBuf[:0], states, left)
		key := string(keyBuf)
		if v, ok := memo[key]; ok {
			return v
		}
		total := big.NewInt(0)
		for _, a := range outSymbolsOfSet(m, states) {
			c := count(m.Step(states, a), left-1)
			if m.weights != nil {
				c = new(big.Int).Mul(c, m.weights[a].BigInt())
			}
			total.Add(total, c)
		}
		memo[key] = total
		return total
	}
	return count(m.initial, n)
}

// EnumerateWords calls yield for every distinct word of length n in
// L(M), in lexicographic symbol-ID order, stopping early if yield
// returns false. Exponential; test oracle only.
func EnumerateWords(m *NFA, n int, yield func(word []int) bool) {
	word := make([]int, 0, n)
	var rec func(states []int, left int) bool
	rec = func(states []int, left int) bool {
		if left == 0 {
			for _, q := range states {
				if m.final.Has(q) {
					out := make([]int, len(word))
					copy(out, word)
					return yield(out)
				}
			}
			return true
		}
		for _, a := range outSymbolsOfSet(m, states) {
			next := m.Step(states, a)
			if len(next) == 0 {
				continue
			}
			word = append(word, a)
			cont := rec(next, left-1)
			word = word[:len(word)-1]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(m.initial, n)
}

func outSymbolsOfSet(m *NFA, states []int) []int {
	seen := make(map[int]bool)
	var syms []int
	for _, q := range states {
		for _, a := range m.OutSymbols(q) {
			if !seen[a] {
				seen[a] = true
				syms = append(syms, a)
			}
		}
	}
	sort.Ints(syms)
	return syms
}

// appendSubsetKey appends a varint encoding of (left, states) — states
// are sorted and deduplicated, so the bytes identify the subset. Varint
// bytes replace the decimal-string keys this memo used to build: no
// integer formatting, and typically one byte per state.
func appendSubsetKey(dst []byte, states []int, left int) []byte {
	dst = binary.AppendUvarint(dst, uint64(left))
	for _, q := range states {
		dst = binary.AppendUvarint(dst, uint64(q))
	}
	return dst
}
