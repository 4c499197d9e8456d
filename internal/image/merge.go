package image

import (
	"fmt"
	"slices"
)

// Conflict records a key where two images disagree relative to a common
// base — the situation the paper delegates to application extract/merge
// methods "to detect and resolve possible conflicts".
type Conflict struct {
	Key          string
	Base         *Entry // nil if the key did not exist in the base
	Ours, Theirs Entry
}

func (c Conflict) String() string {
	return fmt.Sprintf("conflict on %q (ours v%d by %s, theirs v%d by %s)",
		c.Key, c.Ours.Version, c.Ours.Writer, c.Theirs.Version, c.Theirs.Writer)
}

// Policy decides the winner of a conflict.
type Policy uint8

const (
	// PolicyLastWriterWins keeps the entry with the higher version
	// (ties prefer "theirs", the incoming update).
	PolicyLastWriterWins Policy = iota
	// PolicyOurs keeps the local entry.
	PolicyOurs
	// PolicyTheirs keeps the incoming entry.
	PolicyTheirs
)

func (p Policy) String() string {
	switch p {
	case PolicyLastWriterWins:
		return "last-writer-wins"
	case PolicyOurs:
		return "ours"
	case PolicyTheirs:
		return "theirs"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Resolver adjudicates conflicts a Policy cannot express; applications may
// install one to implement domain resolution (e.g. airline seat counts
// merge by taking the minimum availability).
type Resolver func(c Conflict) (Entry, error)

// MergeOptions configures ThreeWayMerge.
type MergeOptions struct {
	Policy   Policy
	Resolver Resolver // if non-nil, consulted before Policy
}

// MergeResult reports what a merge did.
type MergeResult struct {
	// Applied is the number of keys taken from "theirs".
	Applied int
	// KeptOurs is the number of conflicting keys resolved in favor of ours.
	KeptOurs int
	// Conflicts lists the conflicts encountered (all resolved; merge does
	// not fail on conflicts unless the Resolver errors).
	Conflicts []Conflict
}

// ThreeWayMerge folds "theirs" into "ours" given their common ancestor
// "base" (may be nil, meaning everything is an addition). It mutates ours
// and returns a summary. An entry conflicts when both sides changed it
// relative to the base and the values differ.
func ThreeWayMerge(base, ours, theirs *Image, opt MergeOptions) (MergeResult, error) {
	var res MergeResult
	if theirs == nil {
		return res, nil
	}
	baseGet := func(key string) (Entry, bool) {
		if base == nil {
			return Entry{}, false
		}
		return base.Get(key)
	}
	// Key order, so resolver callbacks are reproducible.
	for _, their := range theirs.Entries {
		k := their.Key
		our, ourOK := ours.Get(k)
		bent, baseOK := baseGet(k)

		ourChanged := !ourOK && baseOK || ourOK && (!baseOK || !our.Equal(bent))
		if !ourOK && !baseOK {
			ourChanged = false // pure addition from theirs
		}
		theirChanged := !baseOK || !their.Equal(bent)

		switch {
		case !theirChanged:
			// Theirs didn't move; keep ours as-is.
		case !ourChanged:
			// Fast-forward.
			ours.Put(their.Clone())
			res.Applied++
		case ourOK && our.Equal(their):
			// Both made the same change; nothing to do.
		default:
			var basePtr *Entry
			if baseOK {
				b := bent.Clone()
				basePtr = &b
			}
			c := Conflict{Key: k, Base: basePtr, Ours: our, Theirs: their}
			res.Conflicts = append(res.Conflicts, c)
			winner, err := resolve(c, opt)
			if err != nil {
				return res, fmt.Errorf("image: merge of %q: %w", k, err)
			}
			if winner.Equal(our) && ourOK {
				res.KeptOurs++
			} else {
				ours.Put(winner.Clone())
				res.Applied++
			}
		}
	}
	if theirs.Version > ours.Version {
		ours.Version = theirs.Version
	}
	return res, nil
}

func resolve(c Conflict, opt MergeOptions) (Entry, error) {
	if opt.Resolver != nil {
		return opt.Resolver(c)
	}
	switch opt.Policy {
	case PolicyOurs:
		return c.Ours, nil
	case PolicyTheirs:
		return c.Theirs, nil
	default: // last writer wins
		if c.Ours.Version > c.Theirs.Version {
			return c.Ours, nil
		}
		return c.Theirs, nil
	}
}

// Diff returns the keys whose entries differ between a and b (content
// comparison), sorted. Either image may be nil (treated as empty).
func Diff(a, b *Image) []string {
	if a == nil {
		a = New()
	}
	if b == nil {
		b = New()
	}
	var out []string
	for _, e := range a.Entries {
		if be, ok := b.Get(e.Key); !ok || !e.Equal(be) {
			out = append(out, e.Key)
		}
	}
	for _, e := range b.Entries {
		if _, ok := a.Get(e.Key); !ok {
			out = append(out, e.Key)
		}
	}
	slices.Sort(out)
	return out
}
