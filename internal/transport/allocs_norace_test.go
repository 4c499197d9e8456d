//go:build !race

package transport

// roundTripAllocs is TestTCPCallAllocs' ceiling: the handler's reply and
// the decoded reply. The decoded request goes back to the wire pool.
const roundTripAllocs = 2
