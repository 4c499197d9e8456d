//go:build !race

package directory

// replPushPullAllocs is TestReplBatchFlatInViews' ceiling for one
// replicated push+pull at 16 views.
const replPushPullAllocs = 21
