package directory

import "flecc/internal/wire"

// DecodeReplBatch parses EncodeReplBatch's output through no tables: the
// uncached decode the tests hold a standby's table-backed one to.
func DecodeReplBatch(data []byte) (*ReplBatch, error) {
	return decodeReplBatch(wire.NewDecoder(data))
}
