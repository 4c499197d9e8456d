//go:build !race

package flecc_test

// Ceilings of the allocation pins in cmcost_test.go. Each in-process hop
// moves a frame from the wire package's pool; the race detector drops a
// quarter of pool puts at random, so a race build also pays for fresh
// frames (cmcost_race_test.go).
const (
	cleanFetchAllocs  = 2
	pushOneOf64Allocs = 9
	reserveLoopAllocs = 8
	gatherRoundAllocs = 23 // per op, over gatherSharers-1 legs
)

// gatherRoundRuns is how many ops the gather pin averages.
const gatherRoundRuns = 200
