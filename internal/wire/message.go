// Package wire defines the message taxonomy exchanged between Flecc cache
// managers and the directory manager (paper §4.2, Figure 2), and a compact
// hand-written binary codec for sending those messages over byte streams.
//
// The paper's prototype used Java RMI; this reproduction substitutes an
// explicit message protocol so that the same messages can flow over an
// in-process network, a deterministic simulated LAN, or TCP — and so that
// the experiments can count them (Figures 4 and 6 measure exactly the
// number of messages between cache managers and the directory manager).
package wire

import (
	"fmt"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// Type identifies a protocol message.
type Type uint8

const (
	// TInvalid is the zero Type, never sent.
	TInvalid Type = iota

	// --- cache manager → directory manager requests ---

	// TRegister announces a new view and carries its property set, mode,
	// and trigger sources (Figure 2, step 2).
	TRegister
	// TUnregister announces that the view is leaving (killImage;
	// Figure 2, steps 20–21).
	TUnregister
	// TInit asks for the view's initial image (initImage; steps 3–5).
	TInit
	// TPull asks for the freshest image (pullImage). Since carries the
	// version the view already holds so the DM can reply with a delta.
	TPull
	// TPush sends the view's modified data to the primary (pushImage).
	TPush
	// TAcquire asks for exclusive use in strong mode (startUseImage).
	TAcquire
	// TRelease ends exclusive use in strong mode (endUseImage).
	TRelease
	// TSetMode switches the view between strong and weak operation.
	TSetMode
	// TSetProps installs a new property set for the view at run time.
	TSetProps

	// --- directory manager → cache manager requests ---

	// TInvalidate tells a cache manager to stop using its data and return
	// its pending updates (Figure 2, steps 12–14).
	TInvalidate
	// TUpdate pushes a fresh image to an interested view (weak mode
	// propagation, and the whole of the multicast baseline).
	TUpdate

	// --- replies (either direction) ---

	// TAck is a generic success reply; payload fields depend on the
	// request (e.g. TPush's TAck carries the new primary version).
	TAck
	// TImage is a reply carrying an object image (TInit, TPull,
	// TInvalidate replies).
	TImage
	// TErr is a failure reply; Err holds the message.
	TErr

	// --- sharded directory service (internal/shard) ---

	// TRouted is the router→shard envelope: View names the originating
	// view and Blob carries the encoded inner request. The shard directory
	// manager unwraps it and dispatches the inner message as if the view
	// had called it directly.
	TRouted
	// Numbers 16 and 17 carried live shard migration, which is gone. They
	// stay reserved so the types below keep their numbers; the decoder
	// refuses them.
	_
	_

	// --- transport-level handshake ---

	// THello is the connection handshake: a dialing client announces its
	// node name and waits for THelloAck before issuing calls. The peer
	// read loop answers it directly (no handler involved), which bounds
	// connection establishment against dead or non-accepting listeners.
	THello
	// THelloAck acknowledges THello.
	THelloAck

	// --- hot-standby replication (internal/directory) ---

	// TReplicate ships a replication batch from a primary directory
	// manager to a standby: Blob carries the encoded directory.ReplBatch
	// (metadata and values committed since the standby's watermark, records
	// for the views that changed since its view watermark, and the
	// sender's epoch), built from this package's Encoder primitives. A
	// batch with Promote set orders the receiver to take over as primary
	// under a higher epoch.
	TReplicate
	// TReplAck acknowledges TReplicate; Version reports the standby's
	// durable watermark (its highest absorbed primary version) and Since
	// its view watermark (the sender's view-change sequence it has
	// applied through), which the primary uses to rewind after gaps and
	// to size catch-up deltas.
	TReplAck
)

// typeNames names every Type; a number without a name is never sent.
var typeNames = [...]string{
	TInvalid:    "invalid",
	TRegister:   "register",
	TUnregister: "unregister",
	TInit:       "init",
	TPull:       "pull",
	TPush:       "push",
	TAcquire:    "acquire",
	TRelease:    "release",
	TSetMode:    "set-mode",
	TSetProps:   "set-props",
	TInvalidate: "invalidate",
	TUpdate:     "update",
	TAck:        "ack",
	TImage:      "image",
	TErr:        "err",

	TRouted:    "routed",
	THello:     "hello",
	THelloAck:  "hello-ack",
	TReplicate: "replicate",
	TReplAck:   "repl-ack",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// sendable reports whether a message may carry t: TInvalid, the reserved
// numbers and anything past the last type may not.
func (t Type) sendable() bool {
	return t != TInvalid && int(t) < len(typeNames) && typeNames[t] != ""
}

// NotServingMark is the substring a directory manager's refusal carries
// when the node is alive but not serving client traffic — a hot standby
// awaiting promotion, or a fenced ex-primary. Reconnecting cache
// managers treat such refusals like a dead endpoint and rotate to their
// next fallback address instead of surfacing the error.
const NotServingMark = "not serving"

// ContendedMark is the substring a directory manager's refusal of a pull
// carries when conflicting pulls of its group kept claiming it first. It
// is retryable: a cache manager reports it as an invalidation, and the
// view pulls again.
const ContendedMark = "pull contended"

// GrantLease is how long an exclusive grant lasts (Message.Grant), in
// milliseconds of the managers' clocks (vclock: wall time in a daemon,
// virtual time under a simulated clock). The directory counts it from
// when it decides the grant and waits it out for a holder it cannot
// reach; the holder counts GrantLease less GrantMargin from when it sent
// the granting pull, so it stops answering locally before the directory
// stops waiting (PROTOCOL.md "Exclusive grant").
const (
	GrantLease  vclock.Duration = 100
	GrantMargin                 = GrantLease / 16
)

// Mode is a view's consistency mode (paper §4: strong vs weak).
type Mode uint8

const (
	// Weak allows multiple simultaneously active views with relaxed
	// freshness.
	Weak Mode = iota
	// Strong enforces a single active view — one-copy serializability.
	Strong
)

func (m Mode) String() string {
	if m == Strong {
		return "strong"
	}
	return "weak"
}

// OpClass tags the operation a view is about to perform on the shared data.
// The base protocol ignores it; the read/write-semantics extension
// (internal/rwsem, paper §6 future work) uses it to skip invalidations for
// read-only use.
type OpClass uint8

const (
	// OpWrite is the conservative default: the view may modify the data.
	OpWrite OpClass = iota
	// OpRead promises the view will not modify the data.
	OpRead
)

func (o OpClass) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Triggers bundles the three quality-trigger sources a view may register
// (paper §4.1): push, pull, and validity.
type Triggers struct {
	Push     string
	Pull     string
	Validity string
}

// Message is the single on-wire record. Fields beyond Type/Seq/From are
// request-specific; unused fields are zero and encode compactly.
type Message struct {
	// Type discriminates the message.
	Type Type
	// Seq correlates replies with requests: a reply echoes its request's
	// Seq. Assigned by the sending endpoint.
	Seq uint64
	// From names the sending node (view ID or directory ID).
	From string
	// View names the subject view for DM-side bookkeeping (usually the
	// requesting view; for TInvalidate/TUpdate, the target).
	View string
	// Mode is used by TRegister and TSetMode.
	Mode Mode
	// Op tags TAcquire/TPull with the intended operation class.
	Op OpClass
	// pooled marks a message the pool made (NewMessage, or a decode that
	// carries no image): only such a message goes back (Recycle).
	pooled bool
	// Since is the version the sender already holds (TPull).
	Since vclock.Version
	// Version is the primary version (TAck for push, TImage replies). On
	// a view's TPull it names the last push ack the view folded, so the
	// directory may leave that push out of the reply.
	Version vclock.Version
	// Ops counts the logical operations (use windows) folded into the
	// carried image (TPush and fetch/invalidate TImage replies). The
	// directory manager logs it so the experiments can report data quality
	// as "number of remote unseen updates".
	Ops uint32
	// Props carries a property set (TRegister, TSetProps).
	Props property.Set
	// Trig carries trigger sources (TRegister).
	Trig Triggers
	// Img carries an object image (TPush, TImage, TUpdate, TInvalidate
	// replies): its version and entries. The scope it was extracted under
	// or is merged under is the sender's and receiver's registration,
	// never part of the image.
	Img *image.Image
	// Blob carries an opaque nested payload: the encoded inner message for
	// TRouted and the encoded directory.ReplBatch for TReplicate.
	Blob []byte
	// Err is the error text for TErr.
	Err string
	// Grant marks a TPull reply that grants the view exclusive use of its
	// data for GrantLease: it is the only member of its conflict group,
	// so its cache manager may answer pulls locally until the lease runs
	// out or the directory revokes it.
	Grant bool
}

// IsReply reports whether the message is a reply type.
func (m *Message) IsReply() bool {
	return m.Type == TAck || m.Type == TImage || m.Type == TErr || m.Type == TReplAck
}

// String renders a compact human-readable summary for logs.
func (m *Message) String() string {
	s := fmt.Sprintf("%s seq=%d from=%s", m.Type, m.Seq, m.From)
	if m.View != "" {
		s += " view=" + m.View
	}
	if m.Img != nil {
		s += fmt.Sprintf(" img(v%d,%d)", m.Img.Version, m.Img.Len())
	}
	if m.Err != "" {
		s += " err=" + m.Err
	}
	return s
}

// ErrorOf converts a TErr reply into a Go error (nil for other types).
func ErrorOf(m *Message) error {
	if m != nil && m.Type == TErr {
		return &RemoteError{Msg: m.Err}
	}
	return nil
}

// RemoteError is an error reported by the remote side of a call.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }
