package wire

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkWireRoundTrip measures one framed message's write + read cost
// through the buffered wire path (WriteFrame to a sink, FrameReader off a
// repeating stream) — the per-frame floor underneath every transport call.
func BenchmarkWireRoundTrip(b *testing.B) {
	cases := []struct {
		name string
		m    *Message
	}{
		{"ack", &Message{Type: TAck, Seq: 7, From: "dm", Version: 9}},
		{"push8", allocTestMessage(8)},
		{"push128", allocTestMessage(128)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.m); err != nil {
				b.Fatal(err)
			}
			fr := NewFrameReader(&repeatFrames{b: buf.Bytes()})
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteFrame(io.Discard, tc.m); err != nil {
					b.Fatal(err)
				}
				if _, err := fr.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameReaderVsReadFrame isolates the read side: the buffered,
// scratch-reusing FrameReader against the old exact-read ReadFrame on the
// same byte stream.
func BenchmarkFrameReaderVsReadFrame(b *testing.B) {
	m := allocTestMessage(8)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		b.Fatal(err)
	}
	b.Run("readframe", func(b *testing.B) {
		src := &repeatFrames{b: buf.Bytes()}
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ReadFrame(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("framereader", func(b *testing.B) {
		fr := NewFrameReader(&repeatFrames{b: buf.Bytes()})
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fr.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
