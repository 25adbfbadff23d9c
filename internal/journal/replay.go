package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/treads-project/treads/internal/faults"
)

// Replay invokes fn, in LSN order, for every record with LSN > from.
// Passing a snapshot's LSN replays exactly the suffix the snapshot does
// not cover; passing 0 on an uncompacted journal replays everything.
//
// A torn tail on the final segment ends replay cleanly (Open repairs it
// anyway, but Replay tolerates it so read-only inspection of a crashed
// journal works too). A corrupt record anywhere else, or a gap in the
// segment chain, is an error: the log cannot be trusted past it.
//
// Replay syncs first, so records appended through this journal handle —
// including ones whose durability wait has not been called — are on disk
// and visible; it must not race concurrent appends.
func (j *Journal) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	if err := j.Sync(); err != nil {
		return err
	}

	segs, err := listSegments(j.fs, j.dir)
	if err != nil {
		return err
	}
	scannedAny := false
	expectNext := uint64(0)
	for i, seg := range segs {
		final := i == len(segs)-1
		if !final && segs[i+1].first <= from+1 {
			continue // every record in this segment is covered by the snapshot
		}
		if scannedAny && seg.first != expectNext {
			return fmt.Errorf("journal: segment chain gap: %s starts at %d, want %d", seg.path, seg.first, expectNext)
		}
		last, err := replaySegment(j.fs, seg, from, final, func(lsn uint64, payload []byte) error {
			j.m.recoveredRecords.Inc()
			return fn(lsn, payload)
		})
		if err != nil {
			return err
		}
		scannedAny = true
		expectNext = last + 1
	}
	return nil
}

// replaySegment scans one segment, calling fn for records with LSN > from,
// and returns the LSN of the segment's final record (first-1 when empty).
func replaySegment(fs faults.FS, seg segment, from uint64, tolerateTorn bool, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	f, err := fs.OpenFile(seg.path, os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("journal: opening segment for replay: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	lsn := seg.first - 1
	for {
		payload, rerr := readRecord(br, nil) // fn may keep it
		if rerr == io.EOF {
			return lsn, nil
		}
		if errors.Is(rerr, ErrCorrupt) {
			if tolerateTorn {
				return lsn, nil
			}
			return 0, fmt.Errorf("journal: %s record %d: %w", seg.path, lsn+1, rerr)
		}
		if rerr != nil {
			return 0, fmt.Errorf("journal: reading %s: %w", seg.path, rerr)
		}
		lsn++
		if lsn <= from {
			continue
		}
		if err := fn(lsn, payload); err != nil {
			return 0, err
		}
	}
}
