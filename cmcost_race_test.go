//go:build race

package flecc_test

// The allocation pins' ceilings under the race detector, which drops a
// quarter of pool puts at random: each dropped frame costs a fresh frame
// and its buffer, and each dropped message a fresh one. Each is the
// highest reading of 30 race runs.
const (
	cleanFetchAllocs  = 3
	pushOneOf64Allocs = 10
	reserveLoopAllocs = 12
	gatherRoundAllocs = 31 // per op, over gatherSharers-1 legs
)
