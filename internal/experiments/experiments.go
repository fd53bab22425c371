// Package experiments regenerates every table and figure of the paper's
// evaluation, plus one derived experiment per quantitative claim. The
// paper is pure theory: its only table is Table 1 (the tractability
// landscape), so the suite materializes each theorem's guarantee as a
// measurable experiment, per the experiment index in DESIGN.md:
//
//	T1  Table 1 landscape (classification + routing)
//	E2  Theorem 2: PathEstimate accuracy and runtime
//	E3  Theorem 3: UREstimate accuracy
//	E4  Theorem 1: PQEEstimate accuracy
//	E5  §1.1: lineage Θ(|D|^i) blow-up vs polynomial automaton size
//	E6  Theorem 1: runtime scaling in |D|
//	E7  Theorem 1: runtime scaling in 1/ε and measured error envelope
//	E8  §1: Karp–Luby on lineage vs the combined FPRAS
//	E9  Table 1 row 1: safe plans are exact, FPRAS agrees
//	E10 path queries: tree pipeline (Thm 1) vs string pipeline (§3)
//	E11 small probabilities: naive Monte Carlo vs the FPRAS
//	E12 knowledge compilation (lineage → OBDD) vs the automaton
//	A1  §5.1 ablation: binary vs unary multiplier gadget
//	A2  §4.1 ablation: augmented-NFTA translation is linear (Remark 1)
//
// Each experiment returns a Table that cmd/pqebench prints and
// EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Anchor string // where in the paper this comes from
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *Table) Add(cols ...string) {
	t.Rows = append(t.Rows, cols)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Anchor != "" {
		fmt.Fprintf(w, "paper anchor: %s\n", t.Anchor)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	if t.Anchor != "" {
		fmt.Fprintf(w, "*Paper anchor: %s*\n\n", t.Anchor)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*Note: %s*\n", n)
	}
	fmt.Fprintln(w)
}

// Opts configures the suite.
type Opts struct {
	// Epsilon is the FPRAS target error. Default 0.1.
	Epsilon float64
	// Seed drives all randomized components. Default 1.
	Seed int64
	// Quick shrinks sweeps for use inside testing.B benchmarks.
	Quick bool
	// MaxProcs bounds the counting engines' scheduler workers (0 or
	// 1 = sequential). Results are MaxProcs-independent for a fixed
	// Seed.
	MaxProcs int
}

func (o Opts) withDefaults() Opts {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// All runs the complete suite in order.
func All(o Opts) []*Table {
	return []*Table{
		Table1(o),
		E2Path(o),
		E3UR(o),
		E4PQE(o),
		E5Lineage(o),
		E6ScaleDB(o),
		E7ScaleEps(o),
		E8KarpLuby(o),
		E9Safe(o),
		E10Pipeline(o),
		E11SmallProb(o),
		E12OBDD(o),
		A1Mult(o),
		A2Aug(o),
	}
}

// ByID returns the experiment runner for an ID, or nil.
func ByID(id string) func(Opts) *Table {
	switch strings.ToUpper(id) {
	case "T1", "TABLE1":
		return Table1
	case "E2":
		return E2Path
	case "E3":
		return E3UR
	case "E4":
		return E4PQE
	case "E5":
		return E5Lineage
	case "E6":
		return E6ScaleDB
	case "E7":
		return E7ScaleEps
	case "E8":
		return E8KarpLuby
	case "E9":
		return E9Safe
	case "E10":
		return E10Pipeline
	case "E11":
		return E11SmallProb
	case "E12":
		return E12OBDD
	case "A1":
		return A1Mult
	case "A2":
		return A2Aug
	}
	return nil
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	return []string{"T1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2"}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func relErr(est, exact float64) string {
	if exact == 0 {
		if est == 0 {
			return "0"
		}
		return "inf"
	}
	return fmt.Sprintf("%.3f", est/exact-1)
}
