// Package peer implements the decentralized replication protocol sketched
// in the paper's future work (§6): a high-level protocol that maintains
// consistency between multiple instances of the original component
// without a primary copy, while the low-level protocol (Flecc proper)
// keeps each instance's views coherent.
//
// The package also quantifies the paper's §4.1 argument for centralizing
// Flecc: a decentralized protocol needs application-specific merge/extract
// knowledge for every pair of peers — O(n²) relationships — whereas the
// centralized protocol needs only the view↔original component pairings —
// O(n).
//
// Peers synchronize by anti-entropy exchanges: a Sync(a, b) swaps the
// entries each side has not seen, using per-entry version vectors for
// causality. Concurrent updates to the same key are real conflicts and go
// to the application resolver (or last-writer-wins on peer name as a
// deterministic default).
package peer

import (
	"fmt"
	"sync"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// entryMeta is the causality metadata a peer keeps per key.
type entryMeta struct {
	vv vclock.Vector
}

// Peer is one replica of the shared component state in the decentralized
// high-level protocol.
type Peer struct {
	name string
	view image.Codec
	ep   transport.Endpoint

	mu       sync.Mutex
	meta     map[string]entryMeta
	base     *image.Image
	resolver image.Resolver
	// conflicts counts concurrent-update conflicts detected here.
	conflicts int
}

// New attaches a peer named name, replicating the given component state.
func New(name string, view image.Codec, net transport.Network, resolver image.Resolver) (*Peer, error) {
	p := &Peer{
		name:     name,
		view:     view,
		meta:     map[string]entryMeta{},
		base:     image.New(),
		resolver: resolver,
	}
	ep, err := net.Attach(name, p.handle)
	if err != nil {
		return nil, fmt.Errorf("peer: attach %q: %w", name, err)
	}
	p.ep = ep
	return p, nil
}

// Name returns the peer's node name.
func (p *Peer) Name() string { return p.name }

// Close detaches the peer.
func (p *Peer) Close() error { return p.ep.Close() }

// Conflicts returns the number of concurrent-update conflicts this peer
// has resolved.
func (p *Peer) Conflicts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conflicts
}

// refreshLocked folds local mutations into the metadata: any key whose
// current value differs from the last snapshot gets this peer's vector
// component ticked. Caller holds mu.
func (p *Peer) refreshLocked() (*image.Image, error) {
	cur, err := p.view.Extract(property.NewSet())
	if err != nil {
		return nil, err
	}
	if cur == nil {
		cur = image.New()
	}
	for _, e := range cur.Entries {
		be, ok := p.base.Get(e.Key)
		if ok && e.Equal(be) {
			continue
		}
		p.tickLocked(e.Key)
	}
	// Deletions.
	for _, be := range p.base.Entries {
		if _, ok := cur.Get(be.Key); ok || be.Deleted {
			continue
		}
		p.tickLocked(be.Key)
		cur.Put(image.Entry{Key: be.Key, Deleted: true})
	}
	// Callers only read cur, so base takes it over without a copy.
	p.base = cur
	return cur, nil
}

// tickLocked ticks this peer's component of key's vector. Caller holds
// mu.
func (p *Peer) tickLocked(k string) {
	m := p.meta[k]
	if m.vv == nil {
		m.vv = vclock.NewVector()
	}
	m.vv.Tick(p.name)
	p.meta[k] = m
}

// snapshotLocked encodes the peer's current entries plus their vector
// metadata into an image whose entry Writer field carries the rendered
// vector (the wire format has no vector field; the rendering is
// deterministic and parsed back by the receiver — see parseVV).
func (p *Peer) snapshotLocked() (*image.Image, error) {
	cur, err := p.refreshLocked()
	if err != nil {
		return nil, err
	}
	out := &image.Image{Entries: make([]image.Entry, len(cur.Entries))}
	for i, e := range cur.Entries {
		e.Writer = renderVV(p.meta[e.Key].vv)
		out.Entries[i] = e
	}
	return out, nil
}

// Sync performs one anti-entropy exchange with the named peer: it sends a
// snapshot and merges the snapshot the remote returns. After a Sync in
// each direction of a connected graph, all peers converge.
func (p *Peer) Sync(other string) error {
	p.mu.Lock()
	snap, err := p.snapshotLocked()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	reply, err := p.ep.Call(other, &wire.Message{Type: wire.TUpdate, Img: snap})
	if err != nil {
		return err
	}
	if reply.Img == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mergeRemoteLocked(reply.Img)
}

// handle serves incoming exchanges: merge the remote snapshot, reply with
// ours (computed before the merge so the exchange is symmetric).
func (p *Peer) handle(req *wire.Message) *wire.Message {
	if req.Type != wire.TUpdate {
		return &wire.Message{Type: wire.TErr, Err: fmt.Sprintf("peer %s: unexpected %s", p.name, req.Type)}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap, err := p.snapshotLocked()
	if err != nil {
		return &wire.Message{Type: wire.TErr, Err: err.Error()}
	}
	if req.Img != nil {
		if err := p.mergeRemoteLocked(req.Img); err != nil {
			return &wire.Message{Type: wire.TErr, Err: err.Error()}
		}
	}
	return &wire.Message{Type: wire.TImage, Img: snap}
}

// mergeRemoteLocked folds a remote snapshot into this peer using vector
// causality. Caller holds mu.
func (p *Peer) mergeRemoteLocked(remote *image.Image) error {
	apply := image.New()
	for _, re := range remote.Entries {
		k := re.Key
		rvv := parseVV(re.Writer)
		local := p.meta[k]
		switch {
		case local.vv == nil:
			// Unknown key: adopt.
			p.adoptLocked(apply, k, re, rvv)
		default:
			switch local.vv.Compare(rvv) {
			case vclock.Before:
				p.adoptLocked(apply, k, re, rvv)
			case vclock.After, vclock.Equal:
				// We dominate: keep ours.
			case vclock.Concurrent:
				p.conflicts++
				winner, err := p.resolveLocked(k, re)
				if err != nil {
					return err
				}
				merged := local.vv.Clone()
				merged.Merge(rvv)
				if winner {
					p.adoptLocked(apply, k, re, merged)
				} else {
					m := p.meta[k]
					m.vv = merged
					p.meta[k] = m
				}
			}
		}
	}
	if apply.Len() > 0 {
		if err := p.view.Merge(apply, property.NewSet()); err != nil {
			return err
		}
		for _, e := range apply.Entries {
			p.base.Put(e)
		}
	}
	return nil
}

// adoptLocked stages a remote entry for application and records its
// vector.
func (p *Peer) adoptLocked(apply *image.Image, k string, re image.Entry, vv vclock.Vector) {
	re.Writer = "" // strip the metadata rendering before handing to the app
	apply.Put(re)
	p.meta[k] = entryMeta{vv: vv.Clone()}
}

// resolveLocked decides whether the remote entry wins a concurrent
// conflict. Without a resolver, the lexically larger rendered vector wins
// — an arbitrary but deterministic and symmetric rule.
func (p *Peer) resolveLocked(k string, re image.Entry) (remoteWins bool, err error) {
	var ours image.Entry
	if be, ok := p.base.Get(k); ok {
		ours = be
	}
	if p.resolver != nil {
		theirs := re
		theirs.Writer = ""
		w, err := p.resolver(image.Conflict{Key: k, Ours: ours, Theirs: theirs})
		if err != nil {
			return false, err
		}
		return !w.Equal(ours), nil
	}
	return renderVV(parseVV(re.Writer)) > renderVV(p.meta[k].vv), nil
}

// renderVV/parseVV serialize a vector into the entry Writer field.
func renderVV(vv vclock.Vector) string {
	if vv == nil {
		return "{}"
	}
	return vv.String()
}

// parseVV parses the rendering produced by renderVV ("{a:1, b:3}").
func parseVV(s string) vclock.Vector {
	vv := vclock.NewVector()
	s = trimBraces(s)
	if s == "" {
		return vv
	}
	for _, part := range splitComma(s) {
		name, n, ok := splitColon(part)
		if !ok {
			continue
		}
		for i := uint64(0); i < n; i++ {
			vv.Tick(name)
		}
	}
	return vv
}

func trimBraces(s string) string {
	if len(s) >= 2 && s[0] == '{' && s[len(s)-1] == '}' {
		return s[1 : len(s)-1]
	}
	return ""
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			part := s[start:i]
			for len(part) > 0 && part[0] == ' ' {
				part = part[1:]
			}
			if part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}

func splitColon(s string) (string, uint64, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			var n uint64
			for _, c := range s[i+1:] {
				if c < '0' || c > '9' {
					return "", 0, false
				}
				n = n*10 + uint64(c-'0')
			}
			return s[:i], n, true
		}
	}
	return "", 0, false
}

// PairingsCentralized returns the number of application-specific
// merge/extract relationships the centralized protocol needs for n views:
// each view pairs only with the original component (paper §4.1, O(n)).
func PairingsCentralized(n int) int { return n }

// PairingsDecentralized returns the number of relationships the
// decentralized protocol needs: every unordered pair of peers
// (paper §4.1, O(n²)).
func PairingsDecentralized(n int) int { return n * (n - 1) / 2 }
