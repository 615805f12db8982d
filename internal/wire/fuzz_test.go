package wire

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip encodes an arbitrary mix of values through Writer and
// decodes it back through Reader, checking exact value and length recovery.
// Run with `go test -fuzz FuzzRoundTrip ./internal/wire` to explore beyond
// the seed corpus.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), []byte{})
	f.Add(int64(-1), uint64(1), []byte{0xff})
	f.Add(int64(1<<62), uint64(1)<<63, []byte("payload"))
	f.Add(int64(-1<<62), uint64(127), bytes.Repeat([]byte{7}, 300))
	f.Fuzz(func(t *testing.T, i int64, u uint64, raw []byte) {
		var w Writer
		w.Int(int(i)).Uint(u).Raw(raw).Ints([]int{int(i), 0, -int(i)})
		msg := w.Bytes()
		if w.Len() != len(msg) {
			t.Fatalf("Len %d != len(Bytes) %d", w.Len(), len(msg))
		}
		r := NewReader(msg)
		if got := r.Int(); got != int(i) {
			t.Fatalf("Int: got %d, want %d", got, i)
		}
		if got := r.Uint(); got != u {
			t.Fatalf("Uint: got %d, want %d", got, u)
		}
		if got := r.Raw(); !bytes.Equal(got, raw) {
			t.Fatalf("Raw: got %v, want %v", got, raw)
		}
		xs := r.Ints()
		if r.Err() != nil {
			t.Fatalf("decode error: %v", r.Err())
		}
		if len(xs) != 3 || xs[0] != int(i) || xs[1] != 0 || xs[2] != -int(i) {
			t.Fatalf("Ints: got %v", xs)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}

// FuzzReader feeds arbitrary bytes to every Reader accessor: decoding hostile
// input must never panic or over-read, only latch ErrTruncated. DecodeInt
// must agree with DecodeInts(msg, 1) on every input, error included.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})                         // truncated varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}) // runs past the end
	f.Add([]byte{5, 1, 2})                      // Raw length past the end
	f.Add([]byte{3, 0, 0, 0, 9})                // plausible Ints header
	f.Fuzz(func(t *testing.T, msg []byte) {
		for _, decode := range []func(r *Reader){
			func(r *Reader) { r.Uint(); r.Int(); r.Raw(); r.Ints() },
			func(r *Reader) { r.Ints(); r.Raw(); r.Uint() },
			func(r *Reader) { r.Raw(); r.Raw() },
		} {
			r := NewReader(msg)
			decode(r) // must not panic
			if r.Remaining() < 0 {
				t.Fatal("reader over-read the buffer")
			}
		}
		x, err := DecodeInt(msg)
		xs, errs := DecodeInts(msg, 1)
		if err != errs {
			t.Fatalf("DecodeInt error %v, DecodeInts error %v", err, errs)
		}
		if err == nil && x != xs[0] {
			t.Fatalf("DecodeInt = %d, DecodeInts = %d", x, xs[0])
		}
		if err != nil && x != 0 {
			t.Fatalf("DecodeInt = %d on error", x)
		}
		// A clean full decode must account for every byte it consumed.
		r := NewReader(msg)
		for r.Err() == nil && r.Remaining() > 0 {
			r.Uint()
		}
	})
}
