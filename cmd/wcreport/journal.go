package main

import (
	"fmt"
	"io"
	"os"

	"webcachesim/internal/core"
	"webcachesim/internal/report"
)

// summarizeJournal renders a wcsim run journal as a human-readable
// throughput table: one row per policy × capacity cell, plus the sweep
// totals. ReadJournal validates the schema, so this doubles as the CI
// smoke check that keeps docs/METRICS.md honest.
func summarizeJournal(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() {
		_ = f.Close()
	}()
	recs, err := core.ReadJournal(f)
	if err != nil {
		return err
	}

	var start, end *core.JournalRecord
	var runs []core.JournalRecord
	progress := 0
	for i := range recs {
		switch recs[i].Event {
		case core.JournalSweepStart:
			if start == nil {
				start = &recs[i]
			}
		case core.JournalSweepEnd:
			end = &recs[i]
		case core.JournalRunEnd:
			runs = append(runs, recs[i])
		case core.JournalProgress:
			progress++
		}
	}
	// The admission column appears only when the sweep declared an
	// admission axis, so journals from unfiltered sweeps render as before.
	withAdmission := start != nil && len(start.Admissions) > 0
	if start != nil {
		if withAdmission {
			fmt.Fprintf(out, "journal: %s — %d policies × %d admissions × %d capacities over %d requests (%d documents), parallelism %d\n",
				path, len(start.Policies), len(start.Admissions), len(start.Capacities),
				start.Requests, start.Documents, start.Parallelism)
		} else {
			fmt.Fprintf(out, "journal: %s — %d policies × %d capacities over %d requests (%d documents), parallelism %d\n",
				path, len(start.Policies), len(start.Capacities),
				start.Requests, start.Documents, start.Parallelism)
		}
		fmt.Fprintln(out)
	}

	headers := []string{"Policy", "Cache (MB)", "Wall (s)", "kreq/s", "Evictions", "HR", "BHR"}
	if withAdmission {
		headers = append([]string{"Policy", "Admission", "Cache (MB)",
			"Wall (s)", "kreq/s", "Evictions", "HR", "BHR"}, "Rejects")
	}
	t := report.NewTable("Run journal summary", headers...)
	for _, r := range runs {
		cells := []any{r.Policy}
		if withAdmission {
			adm := r.Admission
			if adm == "" {
				adm = "none"
			}
			cells = append(cells, adm)
		}
		cells = append(cells, fmt.Sprintf("%.0f", float64(r.Capacity)/(1<<20)),
			fmt.Sprintf("%.2f", r.ElapsedMs/1000),
			fmt.Sprintf("%.0f", r.RequestsPerSec/1000),
			r.Evictions, r.HitRate, r.ByteHitRate)
		if withAdmission {
			cells = append(cells, r.AdmissionRejects)
		}
		t.AddRowf(cells...)
	}
	fmt.Fprint(out, t.Text())

	if len(runs) == 0 {
		fmt.Fprintln(out, "journal has no completed runs (interrupted sweep?)")
	}
	if progress > 0 {
		fmt.Fprintf(out, "\n%d progress ticks recorded (plot elapsedMs vs requests for per-run trajectories)\n", progress)
	}
	if end != nil {
		fmt.Fprintf(out, "sweep total: %d cells, %.2fs wall, %.0f kreq/s aggregate\n",
			end.Cells, end.ElapsedMs/1000, end.RequestsPerSec/1000)
	}
	return nil
}
