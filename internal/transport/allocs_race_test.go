//go:build race

package transport

// roundTripAllocs is TestTCPCallAllocs' ceiling under the race detector,
// which drops a quarter of pool puts at random: a warm round trip reads 5
// there (a mean of about 5.3 objects).
const roundTripAllocs = 5
