//go:build race

package directory

// replPushPullAllocs is TestReplBatchFlatInViews' ceiling under the race
// detector, which drops a quarter of pool puts at random: the highest
// reading of 30 race runs.
const replPushPullAllocs = 26
