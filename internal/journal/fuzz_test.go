package journal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"

	"github.com/treads-project/treads/internal/faults"
)

// FuzzReadRecord feeds the record decoder arbitrary bytes. The decoder
// must never panic, must reject every corrupt frame with ErrCorrupt (or
// report clean EOF), and every frame it does accept must re-encode to
// exactly the bytes it consumed.
func FuzzReadRecord(f *testing.F) {
	// Valid frames of assorted sizes.
	for _, payload := range [][]byte{
		[]byte("a"),
		[]byte("hello journal"),
		bytes.Repeat([]byte{0xab}, 1000),
		{},
	} {
		f.Add(appendRecord(nil, payload))
	}
	// Garbage and truncations.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xde, 0xad, 0xbe, 0xef, 0x41})
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := readRecord(r, nil)
		switch {
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("clean EOF reported with %d unread bytes possible", len(data))
			}
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
		default:
			// Accepted frame: canonical re-encoding must reproduce the
			// consumed prefix bit-for-bit.
			consumed := len(data) - r.Len()
			if again := appendRecord(nil, payload); !bytes.Equal(again, data[:consumed]) {
				t.Fatalf("accepted frame is not canonical: %x vs %x", again, data[:consumed])
			}
		}
	})
}

// FuzzReadSnapshot feeds the snapshot reader arbitrary files. It must never
// panic; a file that is one or more valid frames up to a clean end reads as
// exactly those frames' payloads in order and passes Open's validation; any
// other file — a bad or partial frame anywhere, or no frame — ends in an
// error wrapping ErrCorrupt, never a clean EOF, and Open quarantines it. A
// length prefix above MaxRecordBytes is rejected by readRecord before
// anything is allocated for it, and the reader holds one frame at a time.
func FuzzReadSnapshot(f *testing.F) {
	frames := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out = appendRecord(out, p)
		}
		return out
	}
	two := frames([]byte("first frame "), []byte("second frame"))
	f.Add(frames([]byte{}))
	f.Add(frames([]byte("one frame")))
	f.Add(two)
	f.Add(two[:len(two)-5])                                       // torn inside the second frame
	f.Add(append(frames([]byte("good")), 0xff, 0xff, 0xff, 0xff)) // oversized length, partial header
	f.Add(append(frames([]byte("good")), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, file []byte) {
		fr := &frameReader{f: io.NopCloser(bytes.NewReader(file)), path: "fuzz"}
		// Drained a byte at a time, so every frame spans many Reads.
		got, err := io.ReadAll(iotest.OneByteReader(fr))
		if cap(fr.frame) > MaxRecordBytes {
			t.Fatalf("the reader held a %d-byte frame", cap(fr.frame))
		}
		// The oracle walks the same file one frame at a time.
		var want []byte
		n, bad := 0, false
		for r := bytes.NewReader(file); ; n++ {
			frame, ferr := readRecord(r, nil)
			if ferr == io.EOF {
				break
			}
			if ferr != nil {
				bad = true
				break
			}
			want = append(want, frame...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(snapshotPath(dir, 3), file, 0o644); err != nil {
			t.Fatal(err)
		}
		kept, cerr := cleanSnapshots(faults.OS{}, dir, true)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if bad || n == 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("file with a bad frame or none: read %d bytes, then %v; want ErrCorrupt", len(got), err)
			}
			if _, serr := os.Stat(snapshotPath(dir, 3)); kept != 0 || !os.IsNotExist(serr) {
				t.Fatalf("cleanSnapshots kept it: newest %d, stat %v", kept, serr)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d valid frames: read %d bytes, then %v; want %d bytes", n, len(got), err, len(want))
		}
		if kept != 3 {
			t.Fatalf("cleanSnapshots = %d on a valid snapshot, want 3", kept)
		}
	})
}
