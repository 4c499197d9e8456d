package experiments

import (
	"strings"
	"testing"
)

func TestAblationConflict(t *testing.T) {
	res, err := RunAblationConflict(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
	out := res.Table().String()
	for _, want := range []string{"worst-case", "static-map", "dynamic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestAblationConflictFullGroup(t *testing.T) {
	// One big conflict group: worst-case and property-based coincide,
	// CheckShape must not demand a difference.
	res, err := RunAblationConflict(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationRW(t *testing.T) {
	res, err := RunAblationRW(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table().String(), "read-aware") {
		t.Fatal("table rendering")
	}
}

func TestAblationPeer(t *testing.T) {
	res, err := RunAblationPeer([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
	// Quadratic growth: doubling n roughly quadruples messages.
	r2, r4, r8 := res.Rows[0], res.Rows[1], res.Rows[2]
	if r4.SyncMessagesPerAntiEntropyRound <= 2*r2.SyncMessagesPerAntiEntropyRound {
		t.Fatal("messages should grow super-linearly")
	}
	if r8.PairingsDecentralized != 28 || r8.PairingsCentralized != 8 {
		t.Fatalf("pairings: %+v", r8)
	}
}
