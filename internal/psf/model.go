// Package psf implements the Partitionable Services Framework substrate
// the paper builds Flecc inside (§3): a dynamic component-based framework
// that assembles and deploys application components into a network based
// on a declarative specification, a monitoring module, a planning module,
// and a deployment module.
//
// PSF models components as entities that implement and require interfaces
// (the CORBA Component Model style); the environment is a set of nodes and
// links with properties (latency, security). The planning module finds a
// component deployment that satisfies the application conditions and the
// client QoS requirements — inserting encryptor/decryptor pairs around
// insecure links and placing cache components (views, e.g. travel agents)
// close to clients to offset high latency. Deployed views of the same
// component are then kept coherent by Flecc.
package psf

import (
	"fmt"
	"sort"

	"flecc/internal/property"
)

// Interface is a named service interface with optional properties
// describing the data behind it.
type Interface struct {
	// Name identifies the interface (e.g. "FlightDB").
	Name string
	// Props characterizes the data the interface exposes.
	Props property.Set
}

// Component is a deployable application component: it implements some
// interfaces and requires others (paper §3.1).
type Component struct {
	// Name identifies the component type (e.g. "travel-agent").
	Name string
	// Implements lists the interfaces the component provides.
	Implements []Interface
	// Requires lists the interfaces the component needs for correct
	// execution.
	Requires []string
	// Methods lists the component's method names (F_c in §3.2); used by
	// the view relationship check.
	Methods []string
	// Replicable marks components PSF may replicate as views (e.g.
	// travel agents); non-replicable components (the main database) are
	// deployed exactly once.
	Replicable bool
}

// ImplementsInterface reports whether the component provides the named
// interface.
func (c *Component) ImplementsInterface(name string) bool {
	for _, i := range c.Implements {
		if i.Name == name {
			return true
		}
	}
	return false
}

// Node is an environment host.
type Node struct {
	// Name identifies the host.
	Name string
	// Secure marks hosts trusted to run sensitive components.
	Secure bool
	// Capacity bounds how many components the planner may place here
	// (0 = unlimited).
	Capacity int
}

// Link is a network connection between two nodes.
type Link struct {
	A, B string
	// Latency in virtual milliseconds, one way.
	Latency int
	// Secure links need no encryptor/decryptor insertion.
	Secure bool
}

// QoS is a client's quality-of-service requirement (§5.1: transaction
// privacy, maximum latency, and operation type).
type QoS struct {
	// MaxLatency is the maximum acceptable one-way path latency to the
	// required service, in ms (0 = unconstrained).
	MaxLatency int
	// Privacy requires encryption across insecure links.
	Privacy bool
	// Buying marks clients that need strong consistency (buyers vs
	// viewers).
	Buying bool
}

// ClientReq is a client attached to a node requiring an interface under a
// QoS.
type ClientReq struct {
	// Name identifies the client.
	Name string
	// Node is where the client lives.
	Node string
	// Requires is the interface the client consumes.
	Requires string
	// QoS is the client's requirement.
	QoS QoS
}

// Spec is a complete declarative specification: the application's
// components plus the environment and clients (paper §3.1 element (i)).
type Spec struct {
	Components map[string]*Component
	Nodes      map[string]*Node
	Links      []Link
	Clients    []ClientReq
	// Placements pins non-replicable components to nodes (e.g. the main
	// database on the server host).
	Placements map[string]string // component -> node
}

// NewSpec returns an empty specification.
func NewSpec() *Spec {
	return &Spec{
		Components: map[string]*Component{},
		Nodes:      map[string]*Node{},
		Placements: map[string]string{},
	}
}

// AddComponent registers a component type.
func (s *Spec) AddComponent(c *Component) error {
	if _, dup := s.Components[c.Name]; dup {
		return fmt.Errorf("psf: duplicate component %q", c.Name)
	}
	s.Components[c.Name] = c
	return nil
}

// AddNode registers a host.
func (s *Spec) AddNode(n *Node) error {
	if _, dup := s.Nodes[n.Name]; dup {
		return fmt.Errorf("psf: duplicate node %q", n.Name)
	}
	s.Nodes[n.Name] = n
	return nil
}

// AddLink registers a connection; both endpoints must exist.
func (s *Spec) AddLink(l Link) error {
	if _, ok := s.Nodes[l.A]; !ok {
		return fmt.Errorf("psf: link endpoint %q not declared", l.A)
	}
	if _, ok := s.Nodes[l.B]; !ok {
		return fmt.Errorf("psf: link endpoint %q not declared", l.B)
	}
	s.Links = append(s.Links, l)
	return nil
}

// Provider returns the component implementing the named interface.
func (s *Spec) Provider(iface string) (*Component, bool) {
	names := make([]string, 0, len(s.Components))
	for n := range s.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if s.Components[n].ImplementsInterface(iface) {
			return s.Components[n], true
		}
	}
	return nil, false
}

// Validate checks referential integrity: placements name real components
// and nodes, client requirements have providers, requires are satisfied.
func (s *Spec) Validate() error {
	for comp, node := range s.Placements {
		if _, ok := s.Components[comp]; !ok {
			return fmt.Errorf("psf: placement of unknown component %q", comp)
		}
		if _, ok := s.Nodes[node]; !ok {
			return fmt.Errorf("psf: placement on unknown node %q", node)
		}
	}
	for _, c := range s.Components {
		for _, req := range c.Requires {
			if _, ok := s.Provider(req); !ok {
				return fmt.Errorf("psf: component %q requires %q, which nothing implements", c.Name, req)
			}
		}
	}
	for _, cl := range s.Clients {
		if _, ok := s.Nodes[cl.Node]; !ok {
			return fmt.Errorf("psf: client %q on unknown node %q", cl.Name, cl.Node)
		}
		if _, ok := s.Provider(cl.Requires); !ok {
			return fmt.Errorf("psf: client %q requires %q, which nothing implements", cl.Name, cl.Requires)
		}
	}
	return nil
}
