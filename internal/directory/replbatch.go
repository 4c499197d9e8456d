package directory

import (
	"fmt"

	"flecc/internal/image"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// ReplBatch is the unit of primary→standby log shipping, carried in a
// TReplicate message's Blob in the binary form below. A batch costs what
// changed since the target's watermarks: the shadow records and log tail
// after Since, the values behind them, and records for just the views
// whose state moved after ViewSince. Full state is the same batch with
// both watermarks zero.
type ReplBatch struct {
	// Epoch is the sender's fencing epoch. Receivers refuse batches from
	// an older epoch; a standby's self-promotion installs a higher one.
	Epoch uint64
	// Since is the watermark this delta starts after: the batch carries
	// everything committed in (Since, Snap.Version]. A receiver whose own
	// watermark is below Since refuses the batch (a hole would otherwise
	// open) and reports its honest watermark in the ack.
	Since vclock.Version
	// Snap is the metadata delta: shadow records and log tail after
	// Since. Snap.Views holds the batch's registration records — the full
	// state (props, validity trigger, mode, op, seen, phase) of every
	// view that was registered, re-registered, re-propertied or revived
	// after ViewSince; with ViewSince 0, of every view. Nil for an
	// epoch-only batch.
	Snap *Snapshot
	// Img carries the primary values committed after Since, so a standby
	// replicates application data as well as metadata. Nil when nothing
	// was committed.
	Img *image.Image
	// ViewSince and ViewSeq bound the view records the way Since and
	// Snap.Version bound the data: the batch carries every view change
	// the sender journaled in (ViewSince, ViewSeq]. ViewSince 0 marks
	// full view state, which a receiver always accepts; otherwise it
	// refuses a batch whose ViewSince it has not reached.
	ViewSince, ViewSeq uint64
	// Touches are the small per-request records: views whose mode, op
	// class, seen version or phase moved but whose registration did not.
	Touches []ViewTouch
	// Removed names the views unregistered after ViewSince.
	Removed []string
}

// ViewTouch is the part of a view's directory state that ordinary
// requests move: a pull changes Seen, Op and Phase, a set-mode Mode, an
// invalidation or eviction Phase. Props and the validity trigger — the
// expensive part to ship and to install — travel in registration records
// only.
type ViewTouch struct {
	Name  string
	Mode  wire.Mode
	Op    wire.OpClass
	Seen  vclock.Version
	Phase Phase // inactive, active or lost; a gone view ships as a removal
}

// replFormat is the first byte of every encoded batch; bump it on an
// incompatible change. (Version 1 replaced the gob encoding, whose
// streams never start with this byte; version 2 dropped the image's
// property set; version 3 made counts, lengths and versions uvarints;
// version 4 replaced the active byte with the phase byte — 0 inactive,
// 1 active, 2 lost — which a version-3 reader would take for active.)
const replFormat = 4

// replFlagData marks a batch that carries a data section. It is the only
// flag, and the decoder refuses any other bit: bit 0 was a promote order,
// and no message may promote a standby.
const replFlagData = 1 << 1

// EncodeReplBatch serializes a batch with the wire package's pooled
// encoder.
func EncodeReplBatch(b *ReplBatch) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.U8(replFormat)
	var flags uint8
	if b.Snap != nil {
		flags = replFlagData
	}
	e.U8(flags)
	e.Uvarint(b.Epoch)
	if b.Snap == nil {
		return e.Copy()
	}
	e.Uvarint(uint64(b.Since))
	e.Uvarint(uint64(b.Snap.Version))
	e.Uvarint(b.ViewSince)
	e.Uvarint(b.ViewSeq)
	encodeSnapSections(e, b.Snap)
	e.Count(len(b.Touches))
	for _, t := range b.Touches {
		encodeTouch(e, t)
	}
	encodeNames(e, b.Removed)
	e.Bool(b.Img != nil)
	if b.Img != nil {
		e.ImageEntries(b.Img)
	}
	return e.Copy()
}

func encodeTouch(e *wire.Encoder, t ViewTouch) {
	e.Str(t.Name)
	e.U8(uint8(t.Mode))
	e.U8(uint8(t.Op))
	e.Uvarint(uint64(t.Seen))
	e.U8(uint8(t.Phase))
}

func decodeTouch(d *wire.Decoder) ViewTouch {
	t := ViewTouch{Name: d.Str(), Mode: wire.Mode(d.U8()), Op: wire.OpClass(d.U8()),
		Seen: vclock.Version(d.Uvarint()), Phase: Phase(d.U8())}
	if t.Phase > PhaseLost {
		d.Fail(fmt.Errorf("directory: view %q record in phase %s", t.Name, t.Phase))
	}
	return t
}

// encodeNames writes a name list, a batch's removal records: its count,
// then each name.
func encodeNames(e *wire.Encoder, names []string) {
	e.Count(len(names))
	for _, n := range names {
		e.Str(n)
	}
}

// decodeNames reads what encodeNames wrote (nil for an empty list).
func decodeNames(d *wire.Decoder) []string {
	n := d.Count(minName)
	if n == 0 {
		return nil
	}
	names := make([]string, n)
	for i := range names {
		names[i] = d.Str()
	}
	return names
}

// DecodeReplBatch parses EncodeReplBatch's output. It is total on hostile
// input: every length is checked against the bytes that remain before
// anything is allocated for it.
func DecodeReplBatch(data []byte) (*ReplBatch, error) {
	d := wire.NewDecoder(data)
	if v := d.U8(); d.Err() == nil && v != replFormat {
		return nil, fmt.Errorf("directory: unsupported replication batch format %d (want %d)", v, replFormat)
	}
	flags := d.U8()
	if d.Err() == nil && flags&^replFlagData != 0 {
		return nil, fmt.Errorf("directory: replication batch flags %#x: only data (%#x) is defined", flags, replFlagData)
	}
	epoch := d.Uvarint()
	var b *ReplBatch
	if flags&replFlagData != 0 {
		// A data batch and its snapshot are one allocation.
		s := &struct {
			ReplBatch
			snap Snapshot
		}{}
		b = &s.ReplBatch
		b.Snap = &s.snap
		decodeReplData(d, b)
	} else {
		b = &ReplBatch{}
	}
	b.Epoch = epoch
	if err := decoded(d, "repl batch"); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeReplData fills a data batch's fields, b.Snap included, in place.
func decodeReplData(d *wire.Decoder, b *ReplBatch) {
	b.Since = vclock.Version(d.Uvarint())
	b.Snap.Version = vclock.Version(d.Uvarint())
	b.ViewSince = d.Uvarint()
	b.ViewSeq = d.Uvarint()
	decodeSnapSections(d, b.Snap)
	if n := d.Count(minTouchRec); n > 0 {
		b.Touches = make([]ViewTouch, n)
		for i := range b.Touches {
			b.Touches[i] = decodeTouch(d)
		}
	}
	b.Removed = decodeNames(d)
	if d.Bool() {
		b.Img = image.New()
		_ = d.ImageEntries(b.Img) // latched in d.Err
	}
}

// ReplMessage wraps a batch in its TReplicate envelope.
func ReplMessage(b *ReplBatch) *wire.Message {
	return &wire.Message{Type: wire.TReplicate, Blob: EncodeReplBatch(b)}
}
