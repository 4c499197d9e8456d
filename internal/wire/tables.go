package wire

import "flecc/internal/property"

// Table bounds. A stream speaks with a handful of nodes about the keys of
// a few views and the scopes they are registered under, so a small table
// catches every string or scope it repeats, and the caps keep hostile
// input (a stream of distinct or huge strings or sets) from growing it.
// A string or scope past either cap is decoded afresh each time, as
// without the table.
const (
	maxEntries  = 256  // entries per table
	maxNameLen  = 128  // bytes of a node name or key
	maxScopeLen = 2048 // encoded bytes of a property set
)

// Tables are the intern tables a long-lived stream is decoded through: a
// FrameReader's connection, or a standby's replication stream. Node
// names (From, View, writers) go through names and keys through keys, so
// a stream of distinct keys cannot crowd node names out; encoded property
// sets are cached by their bytes in scopes. Every value in a table is its
// own copy, never a view of the bytes it was decoded from, so a caller
// may reuse or overwrite its input once a decode returns. Not safe for
// concurrent use.
type Tables struct {
	names  map[string]string
	keys   map[string]string
	scopes map[string]property.Set
}

// NewTables returns empty tables.
func NewTables() *Tables {
	t := newTables()
	return &t
}

// newTables returns empty tables by value, for a FrameReader to hold.
// The scope table is made on its first entry: a connection's messages
// carry no binary scopes.
func newTables() Tables {
	return Tables{names: map[string]string{}, keys: map[string]string{}}
}

// NewDecoder reads b through t's tables. Like the package's NewDecoder it
// never modifies or retains b past the values it returns.
func (t *Tables) NewDecoder(b []byte) *Decoder { return &Decoder{buf: b, t: t} }

// fits reports whether an entry decoded from n bytes may join a table
// holding size entries. A table maps the bytes a value was decoded from
// to the value, so a repeat costs a lookup, not an allocation; a scope is
// cached only when it decoded validly, and a property.Set is immutable,
// so one cached set can be handed to every decode of the same bytes.
func fits(size, n, maxLen int) bool { return size < maxEntries && n <= maxLen }

// intern returns the string b holds: t's copy when b was seen before,
// else a fresh copy, kept while t has room.
func intern(t map[string]string, b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if fits(len(t), len(b), maxNameLen) {
		t[s] = s
	}
	return s
}
