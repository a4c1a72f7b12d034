// Command ttcwal inspects a ttcserve durability directory (-data-dir)
// offline: it lists snapshot and write-ahead-log segment files, verifies
// every record's checksum and framing, and can dump the committed batches.
// It never modifies the directory.
//
// Usage:
//
//	ttcwal -dir /var/lib/ttc        # summary + per-file health
//	ttcwal -dir /var/lib/ttc -dump  # print every committed batch
//	ttcwal -dir /var/lib/ttc -q     # exit status only (for scripts)
//
// Exit status: 0 when the directory is clean, 1 when any file is damaged
// or the committed history has a gap, 2 on bad flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/wal"
)

func main() {
	var (
		dir   = flag.String("dir", "", "durability directory written by ttcserve -data-dir")
		dump  = flag.Bool("dump", false, "print every committed batch (seq, change kinds)")
		quiet = flag.Bool("q", false, "suppress the report; exit status only")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ttcwal: -dir is required")
		os.Exit(2)
	}
	if *dump && *quiet {
		fmt.Fprintln(os.Stderr, "ttcwal: -dump and -q are mutually exclusive")
		os.Exit(2)
	}

	var visit func(segment string, offset int64, b wal.Batch)
	if *dump {
		visit = func(segment string, offset int64, b wal.Batch) {
			fmt.Printf("%s @%d seq=%d changes=%d %s\n",
				segment, offset, b.Seq, len(b.Changes), summarizeChanges(b.Changes))
		}
	}
	rep, err := wal.Verify(*dir, visit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcwal:", err)
		os.Exit(1)
	}
	if !*quiet {
		printReport(rep)
	}
	if rep.Damaged() {
		os.Exit(1)
	}
}

// summarizeChanges renders a batch's change kinds compactly, e.g.
// "AddUser×2 AddLike×1".
func summarizeChanges(changes []model.Change) string {
	counts := make(map[model.ChangeKind]int)
	var order []model.ChangeKind
	for _, ch := range changes {
		if counts[ch.Kind] == 0 {
			order = append(order, ch.Kind)
		}
		counts[ch.Kind]++
	}
	out := ""
	for i, k := range order {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s×%d", k, counts[k])
	}
	return out
}

func printReport(rep *wal.Report) {
	fmt.Printf("snapshots: %d\n", len(rep.Snapshots))
	for _, s := range rep.Snapshots {
		status := "ok"
		if s.Err != "" {
			status = "INVALID: " + s.Err
		}
		fmt.Printf("  %s  %d bytes  seq=%d  %s\n", s.Name, s.Bytes, s.Seq, status)
	}
	fmt.Printf("segments: %d\n", len(rep.Segments))
	for _, s := range rep.Segments {
		status := "ok"
		if s.Err != "" {
			status = fmt.Sprintf("DAMAGED at offset %d: %s", s.Offset, s.Err)
		}
		fmt.Printf("  %s  %d bytes  %d records  seq %d..%d  %s\n",
			s.Name, s.Bytes, s.Records, s.FirstSeq, s.LastSeq, status)
	}
	fmt.Printf("committed batches: %d (seq %d..%d)\n", rep.Batches, rep.FirstSeq, rep.LastSeq)
	if rep.GapErr != "" {
		fmt.Printf("HISTORY GAP: %s\n", rep.GapErr)
	}
	if rep.Damaged() {
		fmt.Println("status: DAMAGED (a damaged final segment is repaired by truncation on the next ttcserve start; damage elsewhere means lost commits)")
	} else {
		fmt.Println("status: clean")
	}
}
