package netsim

import (
	"testing"

	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func ack(req *wire.Message) *wire.Message { return &wire.Message{Type: wire.TAck} }

func TestLANLatencyCharged(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(5)
	topo.Place("dm", "h1")
	topo.Place("cm1", "h2")
	net := New(clock, topo)

	net.Attach("dm", ack)
	cm, _ := net.Attach("cm1", ack)
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
	// Request 5ms + reply 5ms.
	if clock.Now() != 10 {
		t.Fatalf("clock = %v, want 10ms", clock.Now())
	}
	if net.Stats().Messages() != 2 || net.Stats().Latency() != 10 {
		t.Fatalf("stats = %d msgs, %v latency", net.Stats().Messages(), net.Stats().Latency())
	}
	if net.Stats().Edge("h2", "h1") != 1 || net.Stats().Edge("h1", "h2") != 1 {
		t.Fatal("edge counts wrong")
	}
}

func TestSameHostIsFree(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(5)
	topo.Place("dm", "h1")
	topo.Place("cm1", "h1")
	net := New(clock, topo)
	net.Attach("dm", ack)
	cm, _ := net.Attach("cm1", ack)
	cm.Call("dm", &wire.Message{Type: wire.TPull})
	if clock.Now() != 0 {
		t.Fatalf("same-host call should be free, clock = %v", clock.Now())
	}
	if net.Stats().Messages() != 2 {
		t.Fatal("messages still counted")
	}
}

func TestExplicitLinkOverridesDefault(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(5)
	topo.SetLink("h1", "h3", Link{Latency: 50})
	topo.Place("dm", "h1")
	topo.Place("far", "h3")
	net := New(clock, topo)
	net.Attach("dm", ack)
	far, _ := net.Attach("far", ack)
	far.Call("dm", &wire.Message{Type: wire.TPull})
	if clock.Now() != 100 {
		t.Fatalf("clock = %v, want 100", clock.Now())
	}
}

func TestLinkSymmetry(t *testing.T) {
	topo := NewTopology(Link{Latency: 1})
	topo.SetLink("a", "b", Link{Latency: 7, Secure: true})
	if topo.LinkBetween("a", "b") != topo.LinkBetween("b", "a") {
		t.Fatal("SetLink should be symmetric")
	}
	if topo.LinkBetween("a", "a").Latency != 0 {
		t.Fatal("self link should be free")
	}
	if topo.LinkBetween("a", "zzz").Latency != 1 {
		t.Fatal("default link should apply")
	}
	if topo.Hosts() != 2 {
		t.Fatalf("hosts = %d", topo.Hosts())
	}
}

func TestUnplacedNodesAreLocal(t *testing.T) {
	clock := vclock.NewSim()
	net := New(clock, LAN(10))
	net.Attach("dm", ack)
	cm, _ := net.Attach("cm1", ack)
	cm.Call("dm", &wire.Message{Type: wire.TPull})
	if clock.Now() != 0 {
		t.Fatalf("unplaced nodes should be co-located; clock = %v", clock.Now())
	}
}

func TestNestedCallAccumulatesLatency(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(5)
	topo.Place("dm", "hub")
	topo.Place("cm1", "a")
	topo.Place("cm2", "b")
	net := New(clock, topo)

	var dm transport.Endpoint
	net.Attach("cm2", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TImage}
	})
	dm, err := net.Attach("dm", func(req *wire.Message) *wire.Message {
		// Serving cm1's pull requires invalidating cm2 first.
		if _, err := dm.Call("cm2", &wire.Message{Type: wire.TInvalidate}); err != nil {
			return &wire.Message{Type: wire.TErr, Err: err.Error()}
		}
		return &wire.Message{Type: wire.TImage}
	})
	if err != nil {
		t.Fatal(err)
	}
	cm1, _ := net.Attach("cm1", ack)
	if _, err := cm1.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
	// cm1->dm (5) + dm->cm2 (5) + cm2->dm (5) + dm->cm1 (5) = 20.
	if clock.Now() != 20 {
		t.Fatalf("clock = %v, want 20", clock.Now())
	}
	if net.Stats().Messages() != 4 {
		t.Fatalf("messages = %d, want 4", net.Stats().Messages())
	}
}

func TestBandwidthModel(t *testing.T) {
	clock := vclock.NewSim()
	topo := NewTopology(Link{Latency: 2, BytesPerMs: 10})
	topo.Place("dm", "h1")
	topo.Place("cm1", "h2")
	net := New(clock, topo)
	net.Attach("dm", ack)
	cm, _ := net.Attach("cm1", ack)
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull, Err: "0123456789"}); err != nil {
		t.Fatal(err)
	}
	// Each hop costs 2ms latency + ceil(size/10)ms transfer; the total
	// must therefore exceed the pure-latency 4ms round trip.
	if clock.Now() <= 4 {
		t.Fatalf("bandwidth cost missing, clock = %v", clock.Now())
	}
	// The transfer term scales with message size.
	small := clock.Now()
	clock2 := vclock.NewSim()
	topo2 := NewTopology(Link{Latency: 2, BytesPerMs: 10})
	topo2.Place("dm", "h1")
	topo2.Place("cm1", "h2")
	net2 := New(clock2, topo2)
	net2.Attach("dm", ack)
	cm2, _ := net2.Attach("cm1", ack)
	big := make([]byte, 1000)
	for i := range big {
		big[i] = 'x'
	}
	if _, err := cm2.Call("dm", &wire.Message{Type: wire.TPull, Err: string(big)}); err != nil {
		t.Fatal(err)
	}
	if clock2.Now() <= small {
		t.Fatalf("bigger message should cost more: %v vs %v", clock2.Now(), small)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(1)
	topo.Place("dm", "hub")
	topo.Place("cm1", "edge")
	net := New(clock, topo)
	net.Attach("dm", ack)
	cm, _ := net.Attach("cm1", ack)

	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
	net.Partition("hub", "edge")
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err == nil {
		t.Fatal("partitioned call should fail")
	}
	// Symmetric cut regardless of argument order.
	net.Heal("edge", "hub")
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatalf("healed call should succeed: %v", err)
	}
	if net.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", net.Dropped())
	}
}

func TestPartitionOnlyAffectsCutPair(t *testing.T) {
	clock := vclock.NewSim()
	topo := LAN(1)
	topo.Place("dm", "hub")
	topo.Place("cm1", "edge1")
	topo.Place("cm2", "edge2")
	net := New(clock, topo)
	net.Attach("dm", ack)
	cm1, _ := net.Attach("cm1", ack)
	cm2, _ := net.Attach("cm2", ack)
	net.Partition("hub", "edge1")
	if _, err := cm1.Call("dm", &wire.Message{Type: wire.TPull}); err == nil {
		t.Fatal("cut pair should fail")
	}
	if _, err := cm2.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatalf("uncut pair should work: %v", err)
	}
}

func TestNetString(t *testing.T) {
	net := New(vclock.NewSim(), LAN(1))
	if net.String() == "" {
		t.Fatal("String should render")
	}
}
