//go:build race

package flecc_test

// The allocation pins' ceilings under the race detector, which drops a
// quarter of pool puts at random: each dropped frame costs a fresh frame
// and its buffer. Each is the highest reading of 20 race runs.
const (
	cleanFetchAllocs  = 5
	pushOneOf64Allocs = 11
	reserveLoopAllocs = 18
	gatherRoundAllocs = 51 // per op, over gatherSharers-1 legs
)
