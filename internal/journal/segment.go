package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/treads-project/treads/internal/faults"
)

// Segment files are named wal-<first LSN, 16 hex digits>.log so a plain
// directory listing sorts them in log order and the LSN of every record is
// recoverable from the file name plus its index within the file.

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
)

// segment describes one on-disk log segment.
type segment struct {
	path  string
	first uint64 // LSN of the segment's first record
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segmentPrefix, first, segmentSuffix))
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's segments sorted by first LSN.
func listSegments(fs faults.FS, dir string) ([]segment, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// repairTail scans a segment, truncating it at the first torn or corrupt
// frame (a crash mid-append leaves exactly this), and returns the number
// of intact records. A truncated byte count is also returned so callers
// can log what was dropped.
func repairTail(fs faults.FS, path string) (records uint64, dropped int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: opening segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	var good int64
	var payload []byte // only measured, so every record reuses it
	for {
		var rerr error
		payload, rerr = readRecord(br, payload)
		if rerr == io.EOF {
			break
		}
		if errors.Is(rerr, ErrCorrupt) {
			st, serr := f.Stat()
			if serr != nil {
				return 0, 0, fmt.Errorf("journal: stat during repair: %w", serr)
			}
			dropped = st.Size() - good
			if terr := f.Truncate(good); terr != nil {
				return 0, 0, fmt.Errorf("journal: truncating torn tail of %s: %w", path, terr)
			}
			if serr := f.Sync(); serr != nil {
				return 0, 0, fmt.Errorf("journal: syncing repaired segment: %w", serr)
			}
			return records, dropped, nil
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("journal: scanning %s: %w", path, rerr)
		}
		records++
		good += recordSize(payload)
	}
	return records, 0, nil
}
