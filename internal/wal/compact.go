package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/model"
)

// Compaction rewrites sealed write-ahead-log segments under change-key
// supersession (model.CompactionMask): an add+remove pair on the same
// canonical key nets out, duplicate node adds collapse, and friendship
// endpoints are normalized — so recovery replays the history's net effect
// instead of every pair of operations ever acknowledged. The structure of
// the log is preserved exactly: every record keeps its sequence number (a
// fully superseded batch becomes an empty record, keeping the replay tail
// gapless for the snapshot-fallback contiguity check) and the active
// segment is never touched.
//
// Supersession is segment-local by design: each rewritten segment preserves
// its own net effect, so every individual rewrite-then-swap is
// state-preserving on its own and a crash between swaps — or between the
// temp-file write and the rename — leaves a history that recovers to the
// same final state. Cross-segment supersession would make the swap sequence
// non-atomic as a whole: a pair dropped across two segments with only one
// swap surviving a crash would corrupt acknowledged history.
//
// Each rewrite goes through a temp file (fsync, rename over the original,
// directory fsync) with the same per-record CRC-32C framing the appender
// writes — the same atomic-replace discipline snapshots use.

// CompactionReport summarizes one compaction pass.
type CompactionReport struct {
	// SealedSegments is the number of sealed segments examined;
	// CompactedSegments how many were (or, in a dry run, would be)
	// rewritten.
	SealedSegments    int `json:"sealedSegments"`
	CompactedSegments int `json:"compactedSegments"`
	// Batches counts the records scanned; every one survives (possibly
	// emptied) so sequence numbers stay contiguous.
	Batches int `json:"batches"`
	// ChangesIn/ChangesOut count the changes before and after supersession,
	// split into inserts and removals: a superseded add+remove pair
	// disappears from both columns.
	ChangesIn   int `json:"changesIn"`
	InsertsIn   int `json:"insertsIn"`
	RemovalsIn  int `json:"removalsIn"`
	ChangesOut  int `json:"changesOut"`
	InsertsOut  int `json:"insertsOut"`
	RemovalsOut int `json:"removalsOut"`
	// BytesIn/BytesOut are the sealed segments' file sizes before and after
	// (for unrewritten segments the two sides are equal).
	BytesIn  int64 `json:"bytesIn"`
	BytesOut int64 `json:"bytesOut"`
	// DryRun marks a pass that only measured and swapped nothing.
	DryRun bool `json:"dryRun"`
}

// Compact rewrites the log's sealed segments under change-key supersession.
// It must be called from the committing goroutine (the one calling
// Append); appends to the active segment continue unaffected, as
// sealed segments are immutable until trimmed or compacted. The pass holds
// maintMu throughout so a background snapshot completing mid-pass cannot
// trim a sealed segment out from under the rewrite (the swap would
// resurrect the deleted file and tear a hole recovery refuses).
func (l *Log) Compact() (CompactionReport, error) {
	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return CompactionReport{}, fmt.Errorf("wal: log is closed")
	}
	// Everything but the active (last) segment is sealed and immutable; the
	// scan and rewrite run outside the lock. Segments at or below the
	// compactedThrough watermark were processed by an earlier pass and can
	// never shrink further, so only newly sealed ones are scanned — without
	// this, a long-running server's periodic passes would re-read the whole
	// sealed history every time.
	sealed := make([]string, 0, len(l.segments))
	for i := 0; i < len(l.segments)-1; i++ {
		if name := l.segments[i].name; name > l.compactedThrough {
			sealed = append(sealed, name)
		}
	}
	l.mu.Unlock()

	rep, err := compactSegments(l.opt.Dir, sealed, false)
	if err == nil {
		l.mu.Lock()
		l.metrics.Compactions++
		l.metrics.CompactedSegs += int64(rep.CompactedSegments)
		l.metrics.CompactedBytes += rep.BytesIn - rep.BytesOut
		if len(sealed) > 0 && sealed[len(sealed)-1] > l.compactedThrough {
			l.compactedThrough = sealed[len(sealed)-1]
		}
		l.mu.Unlock()
	}
	return rep, err
}

// CompactDir compacts a durability directory offline (no server running):
// all segments but the newest — which the next server start will reopen for
// appends — are rewritten. With dryRun the pass only measures what
// compaction would save and modifies nothing.
func CompactDir(dir string, dryRun bool) (CompactionReport, error) {
	names, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		return CompactionReport{}, err
	}
	if len(names) > 0 {
		names = names[:len(names)-1]
	}
	return compactSegments(dir, names, dryRun)
}

func compactSegments(dir string, names []string, dryRun bool) (CompactionReport, error) {
	rep := CompactionReport{DryRun: dryRun}
	for _, name := range names {
		if err := compactOne(dir, name, dryRun, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// compactOne scans one sealed segment, applies the supersession mask, and —
// when changes drop out and this is not a dry run — atomically replaces the
// file with the rewritten records.
func compactOne(dir, name string, dryRun bool, rep *CompactionReport) error {
	path := filepath.Join(dir, name)
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	rep.SealedSegments++
	rep.BytesIn += st.Size()

	var batches []Batch
	_, torn, err := scanSegment(path, func(off int64, b Batch) {
		batches = append(batches, b)
	})
	if err != nil {
		return err
	}
	if torn != nil {
		// Sealed segments must scan cleanly: damage here is lost commits
		// (Open refuses it too), and compaction must never paper over it by
		// rewriting what remains.
		return fmt.Errorf("wal: sealed segment %s is damaged at offset %d (%v); refusing to compact", name, torn.Offset, torn.Err)
	}

	// Flatten the segment's changes (keeping each one's batch), normalize,
	// and apply the shared supersession decision.
	var flat []model.Change
	batchOf := make([]int, 0)
	for bi := range batches {
		for _, ch := range batches[bi].Changes {
			flat = append(flat, ch)
			batchOf = append(batchOf, bi)
		}
	}
	cs := model.ChangeSet{Changes: flat}
	cs.Normalize()
	rep.Batches += len(batches)
	rep.ChangesIn += cs.Size()
	rep.InsertsIn += cs.InsertCount()
	rep.RemovalsIn += cs.RemovalCount()

	mask := model.CompactionMask(flat)
	if mask == nil {
		// Nothing collapses; the segment stays as is.
		rep.ChangesOut += cs.Size()
		rep.InsertsOut += cs.InsertCount()
		rep.RemovalsOut += cs.RemovalCount()
		rep.BytesOut += st.Size()
		return nil
	}
	kept := make([][]model.Change, len(batches))
	out := model.ChangeSet{}
	for i, keep := range mask {
		if keep {
			kept[batchOf[i]] = append(kept[batchOf[i]], flat[i])
			out.Changes = append(out.Changes, flat[i])
		}
	}
	rep.ChangesOut += out.Size()
	rep.InsertsOut += out.InsertCount()
	rep.RemovalsOut += out.RemovalCount()
	rep.CompactedSegments++

	if dryRun {
		// Measure the would-be size without writing anything.
		size := int64(len(segmentMagic))
		for bi := range batches {
			payload, err := encodePayload(nil, batches[bi].Seq, kept[bi])
			if err != nil {
				return err
			}
			size += recHeaderSize + int64(len(payload))
		}
		rep.BytesOut += size
		return nil
	}

	data := make([]byte, 0, st.Size())
	data = append(data, segmentMagic...)
	for bi := range batches {
		payload, err := encodePayload(nil, batches[bi].Seq, kept[bi])
		if err != nil {
			return err
		}
		data = append(data, frameRecord(payload)...)
	}
	tmp := path + ".compact"
	if err := writeFileSync(tmp, data); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: compact swap: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	rep.BytesOut += int64(len(data))
	return nil
}
