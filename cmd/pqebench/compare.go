package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadCompareFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runCompare prints per-row ns_per_op (each row's median sample) and
// allocs_per_op deltas between two bench JSON files (rows matched by
// (name, workers)) and a geomean summary of the ns ratios. Rows
// present in only one file are reported explicitly as added (new
// workloads without a baseline) or removed (baseline workloads that
// disappeared — often an accidental rename that would otherwise
// silently drop a regression gate). With
// maxRegress > 0 it returns an error if any matched row regressed, or
// if any baseline row disappeared — the CI bench-delta lane's failure
// conditions. A row regresses when its new median grew by more than
// that fraction and also sits above the old median plus the old
// ns_spread (the interquartile distance of the baseline's samples): a
// median that moved less than the baseline's own spread is noise, not
// a regression. A vanished row is a gate failure because an unbounded
// regression hides behind a rename.
func runCompare(oldPath, newPath string, maxRegress float64, stdout io.Writer) error {
	oldF, err := loadCompareFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadCompareFile(newPath)
	if err != nil {
		return err
	}
	type key struct {
		name    string
		workers int
	}
	oldRows := make(map[key]row, len(oldF.Results))
	for _, r := range oldF.Results {
		oldRows[key{r.Name, r.Workers}] = r
	}

	fmt.Fprintf(stdout, "%-40s %4s %14s %14s %8s %10s\n",
		"name", "w", "old ns/op", "new ns/op", "Δns", "Δallocs")
	newRows := make(map[key]bool, len(newF.Results))
	logSum, matched := 0.0, 0
	var regressions, added []string
	for _, nr := range newF.Results {
		newRows[key{nr.Name, nr.Workers}] = true
		or, ok := oldRows[key{nr.Name, nr.Workers}]
		if !ok {
			added = append(added, fmt.Sprintf("%s (workers=%d): %d ns/op, %d allocs/op",
				nr.Name, nr.Workers, nr.NsPerOp, nr.AllocsPerOp))
			continue
		}
		if or.NsPerOp <= 0 || nr.NsPerOp <= 0 {
			continue
		}
		ratio := float64(nr.NsPerOp) / float64(or.NsPerOp)
		logSum += math.Log(ratio)
		matched++
		dAllocs := "n/a"
		if or.AllocsPerOp > 0 {
			dAllocs = fmt.Sprintf("%+.1f%%", 100*(float64(nr.AllocsPerOp)/float64(or.AllocsPerOp)-1))
		}
		fmt.Fprintf(stdout, "%-40s %4d %14d %14d %+7.1f%% %10s\n",
			nr.Name, nr.Workers, or.NsPerOp, nr.NsPerOp, 100*(ratio-1), dAllocs)
		if maxRegress > 0 && ratio > 1+maxRegress && nr.NsPerOp > or.NsPerOp+or.NsSpread {
			regressions = append(regressions,
				fmt.Sprintf("%s (workers=%d): %+.1f%%", nr.Name, nr.Workers, 100*(ratio-1)))
		}
	}
	var removed []string
	for _, or := range oldF.Results {
		if !newRows[key{or.Name, or.Workers}] {
			removed = append(removed, fmt.Sprintf("%s (workers=%d)", or.Name, or.Workers))
		}
	}
	for _, r := range added {
		fmt.Fprintln(stdout, "ADDED (no baseline):", r)
	}
	for _, r := range removed {
		fmt.Fprintln(stdout, "REMOVED (baseline only):", r)
	}
	if matched == 0 {
		return fmt.Errorf("no rows matched between %s and %s", oldPath, newPath)
	}
	geomean := math.Exp(logSum / float64(matched))
	fmt.Fprintf(stdout, "\ngeomean ns_per_op ratio over %d rows: %.3f (%+.1f%%)\n",
		matched, geomean, 100*(geomean-1))
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(stdout, "REGRESSION:", r)
		}
		return fmt.Errorf("%d row(s) regressed beyond %.0f%%", len(regressions), 100*maxRegress)
	}
	if maxRegress > 0 && len(removed) > 0 {
		return fmt.Errorf("%d baseline row(s) missing from %s (rename or dropped workload evades the regression gate)",
			len(removed), newPath)
	}
	return nil
}
