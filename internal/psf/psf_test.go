package psf

import (
	"io"
	"strings"
	"testing"
)

// airlineSpec is the paper's motivating deployment: a flight database on a
// secure hub, replicable travel agents, viewers and buyers on edge nodes,
// one insecure high-latency link.
const airlineSpec = `
# airline reservation system (paper §5.1)
component flightdb implements FlightDB(Flights={100..199}) methods browse,reserve
component agent implements Reservation(Flights={100..199}) requires FlightDB methods browse,reserve replicable
node hub secure
node edge1
node edge2 capacity=3
link hub edge1 latency=40
link hub edge2 latency=15 secure
link edge1 edge2 latency=30
place flightdb hub
place agent hub
client alice at edge1 requires Reservation maxlatency=10 privacy buying
client bob at edge2 requires Reservation maxlatency=20
`

func mustSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec(airlineSpec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSpec(t *testing.T) {
	s := mustSpec(t)
	if len(s.Components) != 2 || len(s.Nodes) != 3 || len(s.Links) != 3 || len(s.Clients) != 2 {
		t.Fatalf("spec shape: %d comps %d nodes %d links %d clients",
			len(s.Components), len(s.Nodes), len(s.Links), len(s.Clients))
	}
	db := s.Components["flightdb"]
	if !db.ImplementsInterface("FlightDB") || db.Replicable {
		t.Fatalf("flightdb = %+v", db)
	}
	p, ok := db.Implements[0].Props.Get("Flights")
	if !ok || p.Domain.Size() != 100 {
		t.Fatalf("props = %v", db.Implements[0].Props)
	}
	ag := s.Components["agent"]
	if !ag.Replicable || len(ag.Requires) != 1 || ag.Requires[0] != "FlightDB" {
		t.Fatalf("agent = %+v", ag)
	}
	if !s.Nodes["hub"].Secure || s.Nodes["edge2"].Capacity != 3 {
		t.Fatal("node attributes")
	}
	if s.Clients[0].QoS.MaxLatency != 10 || !s.Clients[0].QoS.Privacy || !s.Clients[0].QoS.Buying {
		t.Fatalf("alice QoS = %+v", s.Clients[0].QoS)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"junk directive",
		"component x",                         // missing implements
		"component x implements I(bad?)",      // bad props
		"component x implements I(A={1}",      // unbalanced
		"component x implements I frobnicate", // unknown attr
		"node",                                // missing name
		"node n capacity=x",
		"node n wat",
		"link a b latency=5",         // undeclared endpoints
		"node a\nlink a b latency=5", // one endpoint missing
		"node a\nnode b\nlink a b latency=-1",
		"node a\nnode b\nlink a b nope",
		"node a\nnode b\nlink a b",
		"place x",
		"client c at n requires I", // unknown node+iface caught by Validate
		"client c requires I",      // syntax
		"node n\ncomponent i implements I\nclient c at n requires I maxlatency=x",
		"node n\ncomponent i implements I\nclient c at n requires I wat",
	}
	for _, src := range bad {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("ParseSpec(%q) should fail", src)
		}
	}
}

func TestValidate(t *testing.T) {
	s := NewSpec()
	s.AddNode(&Node{Name: "n"})
	s.AddComponent(&Component{Name: "c", Implements: []Interface{{Name: "I"}}, Requires: []string{"Missing"}})
	if err := s.Validate(); err == nil {
		t.Fatal("unsatisfied requires should fail")
	}
	s2 := NewSpec()
	s2.Placements["ghost"] = "n"
	if err := s2.Validate(); err == nil {
		t.Fatal("placement of unknown component should fail")
	}
	s3 := NewSpec()
	s3.AddComponent(&Component{Name: "c"})
	s3.Placements["c"] = "ghost"
	if err := s3.Validate(); err == nil {
		t.Fatal("placement on unknown node should fail")
	}
}

func TestDuplicateDeclarations(t *testing.T) {
	s := NewSpec()
	if err := s.AddComponent(&Component{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddComponent(&Component{Name: "c"}); err == nil {
		t.Fatal("duplicate component")
	}
	if err := s.AddNode(&Node{Name: "n"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(&Node{Name: "n"}); err == nil {
		t.Fatal("duplicate node")
	}
}

func TestPlanDeploysViewForFarClient(t *testing.T) {
	s := mustSpec(t)
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	views := plan.ViewInstances()
	if len(views) != 1 {
		t.Fatalf("views = %+v", views)
	}
	v := views[0]
	// Alice is 40ms from the hub with a 10ms budget: a view lands on her
	// node, in strong mode (she is buying).
	if v.Client != "alice" || v.Node != "edge1" || !v.Strong || v.Component != "agent" {
		t.Fatalf("view = %+v", v)
	}
	// Bob (15ms ≤ 20ms budget) is served remotely.
	for _, a := range plan.Actions {
		if a.Client == "bob" && a.Kind != "use-remote" {
			t.Fatalf("bob should be remote: %+v", a)
		}
	}
	if plan.PathLatency["alice"] != 0 {
		t.Fatalf("alice served locally, latency = %d", plan.PathLatency["alice"])
	}
	if plan.PathLatency["bob"] != 15 {
		t.Fatalf("bob latency = %d", plan.PathLatency["bob"])
	}
}

func TestPlanInsertsEncryptors(t *testing.T) {
	s := mustSpec(t)
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	encs := plan.Encryptors()
	// Alice requires privacy; her view syncs to the hub over the insecure
	// hub-edge1 link -> exactly one encryptor pair.
	if len(encs) != 1 {
		t.Fatalf("encryptors = %+v", encs)
	}
	if !strings.Contains(encs[0].Detail, "hub") || !strings.Contains(encs[0].Detail, "edge1") {
		t.Fatalf("encryptor detail = %q", encs[0].Detail)
	}
}

func TestPlanSecurePathNeedsNoEncryptor(t *testing.T) {
	src := `
component db implements I methods m
node a secure
node b
link a b latency=5 secure
place db a
client c at b requires I privacy
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Encryptors()) != 0 {
		t.Fatalf("secure path should need no encryptors: %+v", plan.Encryptors())
	}
}

func TestPlanUnreachableClient(t *testing.T) {
	src := `
component db implements I methods m
node a
node island
place db a
client c at island requires I
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanDeployment(s); err == nil {
		t.Fatal("unreachable client should fail planning")
	}
}

func TestPlanNonReplicableOverBudget(t *testing.T) {
	src := `
component db implements I methods m
node a
node b
link a b latency=100
place db a
client c at b requires I maxlatency=10
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanDeployment(s); err == nil {
		t.Fatal("non-replicable provider over budget should fail")
	}
}

func TestShortestPath(t *testing.T) {
	s := NewSpec()
	for _, n := range []string{"a", "b", "c", "d"} {
		s.AddNode(&Node{Name: n})
	}
	s.AddLink(Link{A: "a", B: "b", Latency: 1})
	s.AddLink(Link{A: "b", B: "c", Latency: 1})
	s.AddLink(Link{A: "a", B: "c", Latency: 5})
	s.AddLink(Link{A: "c", B: "d", Latency: 1})
	g := buildGraph(s)
	dist, prev := g.shortestPath("a")
	if dist["c"] != 2 {
		t.Fatalf("dist[c] = %d, want 2 (via b)", dist["c"])
	}
	path := pathTo(prev, "a", "d")
	want := []string{"a", "b", "c", "d"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if pathTo(prev, "a", "zzz") != nil {
		t.Fatal("unreachable path should be nil")
	}
	if p := pathTo(prev, "a", "a"); len(p) != 1 || p[0] != "a" {
		t.Fatalf("self path = %v", p)
	}
}

func TestMonitorEventsAndReplan(t *testing.T) {
	s := mustSpec(t)
	mon := NewMonitor(s)
	var plans []*Plan
	Replanner(mon, s, func(e Event, p *Plan, err error) {
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	})
	// Initially bob is within budget (15 <= 20): remote.
	// The link degrades to 50ms: replanning must deploy a view for bob.
	if err := mon.ObserveLatency("hub", "edge2", 50); err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("plans = %d", len(plans))
	}
	found := false
	for _, a := range plans[0].ViewInstances() {
		if a.Client == "bob" {
			found = true
		}
	}
	if !found {
		t.Fatal("degraded link should trigger a view for bob")
	}
	// No-change observation emits nothing.
	n := len(mon.Events())
	mon.ObserveLatency("hub", "edge2", 50)
	if len(mon.Events()) != n {
		t.Fatal("no-op observation should not emit")
	}
	// Unknown link errors.
	if err := mon.ObserveLatency("x", "y", 1); err == nil {
		t.Fatal("unknown link should fail")
	}
}

type fakeHandle struct{ closed *int }

func (f fakeHandle) Close() error { *f.closed++; return nil }

func TestDeployPlacesAndCloses(t *testing.T) {
	s := mustSpec(t)
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	topo := BuildTopology(s)
	if topo.LinkBetween("hub", "edge1").Latency != 40 {
		t.Fatal("topology should mirror spec links")
	}
	closed := 0
	dep, err := Deploy(s, plan, topo, func(a Action) (io.Closer, error) {
		return fakeHandle{closed: &closed}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One view + one encryptor pair.
	if len(dep.Instances) != 2 {
		t.Fatalf("instances = %+v", dep.Instances)
	}
	onEdge1 := dep.InstancesOn("edge1")
	if len(onEdge1) != 2 {
		t.Fatalf("edge1 instances = %v (view + encryptor at path head)", onEdge1)
	}
	// The view instance is placed on the topology.
	view := plan.ViewInstances()[0]
	if topo.HostOf(view.Instance) != "edge1" {
		t.Fatalf("view placed on %q", topo.HostOf(view.Instance))
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if closed != 2 {
		t.Fatalf("closed = %d", closed)
	}
}

func TestDeployFactoryFailureTearsDown(t *testing.T) {
	s := mustSpec(t)
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	closed := 0
	calls := 0
	_, err = Deploy(s, plan, BuildTopology(s), func(a Action) (io.Closer, error) {
		calls++
		if calls == 2 {
			return nil, io.ErrUnexpectedEOF
		}
		return fakeHandle{closed: &closed}, nil
	})
	if err == nil {
		t.Fatal("factory failure should fail deployment")
	}
	if closed != 1 {
		t.Fatalf("partial deployment should be torn down, closed = %d", closed)
	}
}

func TestDeployCapacityEnforced(t *testing.T) {
	src := `
component db implements I methods m
component agent implements J(F={1}) requires I methods m replicable
node hub secure
node tiny capacity=1
link hub tiny latency=50
place db hub
place agent hub
client c1 at tiny requires J maxlatency=10
client c2 at tiny requires J maxlatency=10
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ViewInstances()) != 2 {
		t.Fatalf("want 2 planned views, got %d", len(plan.ViewInstances()))
	}
	_, err = Deploy(s, plan, BuildTopology(s), func(a Action) (io.Closer, error) {
		return fakeHandle{closed: new(int)}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("capacity should be enforced, err = %v", err)
	}
}

func TestPlanConnectsViewDependencies(t *testing.T) {
	s := mustSpec(t)
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	conns := plan.Connections()
	// Alice's agent view requires FlightDB at the hub.
	if len(conns) != 1 {
		t.Fatalf("connections = %+v", conns)
	}
	c := conns[0]
	if c.Component != "flightdb" || c.Client != "alice" ||
		!strings.Contains(c.Detail, "FlightDB") || !strings.Contains(c.Detail, "hub") {
		t.Fatalf("connect = %+v", c)
	}
}

func TestCheckPlanCatchesMissingConnection(t *testing.T) {
	s := mustSpec(t)
	plan, _ := PlanDeployment(s)
	var stripped []Action
	for _, a := range plan.Actions {
		if a.Kind != "connect" {
			stripped = append(stripped, a)
		}
	}
	bad := &Plan{Actions: stripped, PathLatency: plan.PathLatency}
	if err := CheckPlan(s, bad); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("missing connection should fail: %v", err)
	}
}

func TestCheckPlanAcceptsPlannerOutput(t *testing.T) {
	s := mustSpec(t)
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(s, plan); err != nil {
		t.Fatalf("planner output should pass its own check: %v", err)
	}
}

func TestCheckPlanCatchesMissingClient(t *testing.T) {
	s := mustSpec(t)
	plan, _ := PlanDeployment(s)
	// Drop bob's action.
	var trimmed []Action
	for _, a := range plan.Actions {
		if a.Client != "bob" {
			trimmed = append(trimmed, a)
		}
	}
	bad := &Plan{Actions: trimmed, PathLatency: plan.PathLatency}
	if err := CheckPlan(s, bad); err == nil {
		t.Fatal("unserved client should fail the check")
	}
}

func TestCheckPlanCatchesBudgetViolation(t *testing.T) {
	s := mustSpec(t)
	plan, _ := PlanDeployment(s)
	// Move alice's view to the hub (40ms away, budget 10ms).
	var tampered []Action
	for _, a := range plan.Actions {
		if a.Kind == "deploy-view" && a.Client == "alice" {
			a.Node = "hub"
		}
		tampered = append(tampered, a)
	}
	bad := &Plan{Actions: tampered, PathLatency: plan.PathLatency}
	if err := CheckPlan(s, bad); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget violation should fail: %v", err)
	}
}

func TestCheckPlanCatchesMissingEncryptor(t *testing.T) {
	src := `
component db implements I methods m
node a secure
node b
link a b latency=5
place db a
client c at b requires I privacy
`
	s, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDeployment(s)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the encryptors the planner inserted.
	var stripped []Action
	for _, a := range plan.Actions {
		if a.Kind != "insert-encryptor" {
			stripped = append(stripped, a)
		}
	}
	bad := &Plan{Actions: stripped, PathLatency: plan.PathLatency}
	if err := CheckPlan(s, bad); err == nil || !strings.Contains(err.Error(), "unprotected") {
		t.Fatalf("missing encryptor should fail: %v", err)
	}
}

func TestPlanString(t *testing.T) {
	s := mustSpec(t)
	plan, _ := PlanDeployment(s)
	out := plan.String()
	if !strings.Contains(out, "deploy-view") || !strings.Contains(out, "alice") {
		t.Fatalf("plan string = %q", out)
	}
}
