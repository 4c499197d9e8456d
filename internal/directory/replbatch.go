package directory

import (
	"fmt"
	"slices"

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

// batchBuf is a batch with its snapshot, reused for every batch of a
// replication session: the sender builds each batch into its one
// (Replicator.buildBatch), the standby decodes each into its one
// (handleReplicate, under applyMu). What a batchBuf holds is valid until
// the next build or decode into it; whoever keeps a batch longer keeps
// its encoding. The image header is reused too, but never its entries or
// values: a standby hands those to the codec's Merge, which may keep
// them, so every batch decodes them afresh.
type batchBuf struct {
	ReplBatch
	snap Snapshot
	img  image.Image
}

// maxBufRecords caps the records a batch buffer keeps room for. A
// full-state batch (the first one, or the probe of a recovered standby)
// can carry thousands of registration records; the next reset drops a
// buffer grown past the cap instead of holding it for the session.
const maxBufRecords = 1024

// reset empties the buffer for its next batch. Every record slot is
// zeroed, so no old record pins a name, a scope or a trigger source.
func (b *batchBuf) reset() {
	if b.room() > maxBufRecords {
		*b = batchBuf{}
		return
	}
	clear(b.Touches)
	clear(b.Removed)
	clear(b.snap.Shadow)
	clear(b.snap.Log)
	clear(b.snap.Views)
	b.ReplBatch = ReplBatch{Touches: b.Touches[:0], Removed: b.Removed[:0]}
	b.snap = Snapshot{Shadow: b.snap.Shadow[:0], Log: b.snap.Log[:0], Views: b.snap.Views[:0]}
	b.img = image.Image{}
}

// room returns the most records any of the buffer's slices has room for.
func (b *batchBuf) room() int {
	return max(cap(b.Touches), cap(b.Removed), cap(b.snap.Shadow), cap(b.snap.Log), cap(b.snap.Views))
}

// encodeReplBatch appends a batch's encoding to e.
func encodeReplBatch(e *wire.Encoder, b *ReplBatch) {
	e.U8(replFormat)
	var flags uint8
	if b.Snap != nil {
		flags = replFlagData
	}
	e.U8(flags)
	e.Uvarint(b.Epoch)
	if b.Snap == nil {
		return
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
}

func encodeTouch(e *wire.Encoder, t ViewTouch) {
	e.Str(t.Name)
	e.U8(uint8(t.Mode))
	e.U8(uint8(t.Op))
	e.Uvarint(uint64(t.Seen))
	e.U8(uint8(t.Phase))
}

func decodeTouch(d *wire.Decoder) ViewTouch {
	t := ViewTouch{Name: d.Name(), Mode: wire.Mode(d.U8()), Op: wire.OpClass(d.U8()),
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

// decodeNames appends the names encodeNames wrote to dst.
func decodeNames(d *wire.Decoder, dst []string) []string {
	n := d.Count(minName)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, d.Name())
	}
	return dst
}

// decodeReplBatch parses encodeReplBatch's output from d into into,
// which it resets first, and returns the batch. It is total on hostile
// input: every length is checked against the bytes that remain before
// anything is allocated for it. A standby reads its stream with a decoder
// from its Tables, so the names, keys and scopes the stream repeats cost
// no allocation, and into its one batchBuf, so the records cost none
// either once the buffer has room for them.
func decodeReplBatch(d *wire.Decoder, into *batchBuf) (*ReplBatch, error) {
	into.reset()
	b := &into.ReplBatch
	if v := d.U8(); d.Err() == nil && v != replFormat {
		return nil, fmt.Errorf("directory: unsupported replication batch format %d (want %d)", v, replFormat)
	}
	flags := d.U8()
	if d.Err() == nil && flags&^replFlagData != 0 {
		return nil, fmt.Errorf("directory: replication batch flags %#x: only data (%#x) is defined", flags, replFlagData)
	}
	b.Epoch = d.Uvarint()
	if flags&replFlagData != 0 {
		b.Snap = &into.snap
		b.Since = vclock.Version(d.Uvarint())
		b.Snap.Version = vclock.Version(d.Uvarint())
		b.ViewSince = d.Uvarint()
		b.ViewSeq = d.Uvarint()
		decodeSnapSections(d, b.Snap)
		n := d.Count(minTouchRec)
		b.Touches = slices.Grow(b.Touches, n)
		for i := 0; i < n; i++ {
			b.Touches = append(b.Touches, decodeTouch(d))
		}
		b.Removed = decodeNames(d, b.Removed)
		if d.Bool() {
			b.Img = &into.img
			_ = d.ImageEntries(b.Img) // latched in d.Err
		}
	}
	if err := decoded(d, "repl batch"); err != nil {
		return nil, err
	}
	return b, nil
}
