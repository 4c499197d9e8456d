package directory

import "flecc/internal/wire"

// EncodeReplBatch returns a batch's encoding in a slice of its own: the
// sender encodes into a pooled encoder it sends from, and a test keeps
// what it encodes.
func EncodeReplBatch(b *ReplBatch) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	encodeReplBatch(e, b)
	return e.Copy()
}

// ReplMessage wraps a batch in its TReplicate envelope.
func ReplMessage(b *ReplBatch) *wire.Message {
	return &wire.Message{Type: wire.TReplicate, Blob: EncodeReplBatch(b)}
}

// DecodeReplBatch parses EncodeReplBatch's output through no tables,
// into a buffer of its own: the reference the tests hold a standby's
// decode to, which goes through its tables into its reused buffer.
func DecodeReplBatch(data []byte) (*ReplBatch, error) {
	return decodeReplBatch(wire.NewDecoder(data), new(batchBuf))
}
