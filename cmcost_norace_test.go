//go:build !race

package flecc_test

// Ceilings of the allocation pins in cmcost_test.go. Each in-process hop
// moves a frame from the wire package's pool; the race detector drops a
// quarter of pool puts at random, so a race build also pays for fresh
// frames (cmcost_race_test.go).
const (
	cleanFetchAllocs  = 4
	pushOneOf64Allocs = 10
	reserveLoopAllocs = 16
	gatherRoundAllocs = 46 // per op, over gatherSharers-1 legs
)
