//go:build race

package transport

// roundTripAllocs is TestTCPCallAllocs' ceiling under the race detector,
// which drops a quarter of pool puts at random: a warm round trip reads 4
// there in each of 25 runs.
const roundTripAllocs = 4
