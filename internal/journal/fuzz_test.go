package journal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
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
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if _, err := writeRecordTo(w, payload); err != nil {
			f.Fatal(err)
		}
		w.Flush()
		f.Add(buf.Bytes())
	}
	// Garbage and truncations.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xde, 0xad, 0xbe, 0xef, 0x41})
	f.Add(bytes.Repeat([]byte{0x00}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := readRecord(r)
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
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			if _, werr := writeRecordTo(w, payload); werr != nil {
				t.Fatalf("re-encoding accepted payload: %v", werr)
			}
			w.Flush()
			if !bytes.Equal(buf.Bytes(), data[:consumed]) {
				t.Fatalf("accepted frame is not canonical: %x vs %x", buf.Bytes(), data[:consumed])
			}
		}
	})
}

// FuzzReadSnapshot feeds the snapshot reader arbitrary files. It must never
// panic, must fail with ErrCorrupt unless the file is one or more valid
// frames up to a clean end, and what it returns is exactly those frames'
// payloads in order. A length prefix above MaxRecordBytes is rejected by
// readRecord before anything is allocated for it.
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
		got, err := readSnapshot(bytes.NewReader(file))
		// The oracle walks the same file one frame at a time.
		var want []byte
		n, bad := 0, false
		for r := bytes.NewReader(file); ; n++ {
			frame, ferr := readRecord(r)
			if ferr == io.EOF {
				break
			}
			if ferr != nil {
				bad = true
				break
			}
			want = append(want, frame...)
		}
		if bad || n == 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("file with a bad frame or none: readSnapshot = (%d bytes, %v), want ErrCorrupt", len(got), err)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d valid frames: readSnapshot = (%d bytes, %v), want %d bytes", n, len(got), err, len(want))
		}
	})
}
