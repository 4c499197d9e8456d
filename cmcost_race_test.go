//go:build race

package flecc_test

// The allocation pins' ceilings under the race detector, which drops a
// quarter of pool puts at random: each dropped frame costs a fresh frame
// and its buffer, and each dropped request a fresh message. Each is the
// highest reading of 25 race runs.
const (
	cleanFetchAllocs  = 3
	pushOneOf64Allocs = 11
	reserveLoopAllocs = 15
	gatherRoundAllocs = 37 // per op, over gatherSharers-1 legs
)
