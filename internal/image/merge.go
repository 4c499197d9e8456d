package image

import "fmt"

// Conflict records a key where an incoming update meets a newer value
// another writer committed — the situation the paper delegates to
// application extract/merge methods "to detect and resolve possible
// conflicts".
type Conflict struct {
	Key          string
	Ours, Theirs Entry
}

func (c Conflict) String() string {
	return fmt.Sprintf("conflict on %q (ours v%d by %s, theirs v%d by %s)",
		c.Key, c.Ours.Version, c.Ours.Writer, c.Theirs.Version, c.Theirs.Writer)
}

// Resolver adjudicates the conflicts of a commit; applications install
// one to implement domain resolution (e.g. airline seat counts merge by
// taking the larger reservation count). The directory store
// (directory.Store.Commit) is the one caller, and this is its contract:
//
//   - Ours is the primary's current value of the key, stamped with the
//     key's shadow version and writer, or a tombstone under that stamp if
//     the primary dropped the key. Theirs is the incoming entry as pushed:
//     its Version is the base its writer changed.
//   - The winner counts under the conflict's key whatever its own Key.
//     A winner whose content equals ours (Entry.Equal) keeps the primary
//     as it is, and ours goes back to the pusher in the commit's rejected
//     image.
//   - Any other winner is applied, stamped with the commit's version and
//     the pusher as writer.
//   - An error fails the whole commit: none of its keys land, and it
//     burns no version.
//   - With no resolver installed, the incoming entry wins.
//
// The store calls it outside its locks, in the delta's key order; commits
// of disjoint keys may call it concurrently.
type Resolver func(c Conflict) (Entry, error)
