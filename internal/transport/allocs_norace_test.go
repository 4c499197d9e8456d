//go:build !race

package transport

// roundTripAllocs is TestTCPCallAllocs' ceiling: the decoded request, the
// handler's reply and the decoded reply.
const roundTripAllocs = 3
