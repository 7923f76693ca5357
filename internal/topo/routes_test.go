package topo

import (
	"strings"
	"testing"

	"amrt/internal/netsim"
)

// referenceRoutes is the original map-based route computation, kept as
// the reference InstallShortestPathRoutes must reproduce: for every
// (switch, destination host) pair, the switch's ports whose far end is
// one hop closer to the host, in port creation order.
func referenceRoutes(n *netsim.Network) map[*netsim.Switch]map[netsim.NodeID][]*netsim.Port {
	type edge struct {
		owner netsim.Node
		port  *netsim.Port
	}
	incoming := make(map[netsim.NodeID][]edge)
	addPorts := func(owner netsim.Node, ports []*netsim.Port) {
		for _, p := range ports {
			to := p.Link().To
			incoming[to.ID()] = append(incoming[to.ID()], edge{owner: owner, port: p})
		}
	}
	for _, s := range n.Switches() {
		addPorts(s, s.Ports())
	}
	for _, h := range n.Hosts() {
		if h.NIC() != nil {
			addPorts(h, []*netsim.Port{h.NIC()})
		}
	}

	routes := make(map[*netsim.Switch]map[netsim.NodeID][]*netsim.Port)
	for _, s := range n.Switches() {
		routes[s] = make(map[netsim.NodeID][]*netsim.Port)
	}
	for _, dst := range n.Hosts() {
		if dst.NIC() == nil {
			continue
		}
		dist := map[netsim.NodeID]int{dst.ID(): 0}
		queue := []netsim.NodeID{dst.ID()}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range incoming[cur] {
				id := e.owner.ID()
				if _, seen := dist[id]; !seen {
					dist[id] = dist[cur] + 1
					queue = append(queue, id)
				}
			}
		}
		for _, s := range n.Switches() {
			d, ok := dist[s.ID()]
			if !ok {
				continue
			}
			for _, p := range s.Ports() {
				if nd, ok := dist[p.Link().To.ID()]; ok && nd == d-1 {
					routes[s][dst.ID()] = append(routes[s][dst.ID()], p)
				}
			}
		}
	}
	return routes
}

// TestRoutesMatchReference checks, on every fabric and scenario this
// package builds, that each switch's installed set toward each host
// holds the reference ports in the reference order — the order ECMP
// hashes into, so any difference would move flows onto other paths.
func TestRoutesMatchReference(t *testing.T) {
	ft4, ft8 := DefaultFatTree(), DefaultFatTree()
	ft4.K, ft8.K = 4, 8
	nets := []struct {
		name string
		net  *netsim.Network
	}{
		{"leafspine-default", NewLeafSpine(DefaultLeafSpine()).Net},
		{"fattree-k4", NewFatTree(ft4).Net},
		{"fattree-k8", NewFatTree(ft8).Net},
		{"clos-default", NewClos(DefaultClos()).Net},
		{"chain", NewChain(DefaultScenario()).Net},
		{"fan", NewFan(DefaultScenario()).Net},
		{"fan-n5", NewFanN(DefaultScenario(), 5).Net},
		{"testbed-dynamic", NewTestbedDynamic(TestbedScenario()).Net},
		{"testbed-multibottleneck", NewTestbedMultiBottleneck(TestbedScenario()).Net},
	}
	for _, c := range nets {
		t.Run(c.name, func(t *testing.T) {
			want := referenceRoutes(c.net)
			for _, s := range c.net.Switches() {
				for _, h := range c.net.Hosts() {
					got, ref := s.Routes(h.ID()), want[s][h.ID()]
					if len(got) != len(ref) {
						t.Fatalf("%s -> %s: %d routes, reference %d", s.Name(), h.Name(), len(got), len(ref))
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("%s -> %s: route %d is %s, reference %s",
								s.Name(), h.Name(), i, got[i].Name(), ref[i].Name())
						}
					}
				}
			}
		})
	}
}

// TestRoutesShareSets checks that destinations behind the same uplinks
// share one installed slice rather than holding copies.
func TestRoutesShareSets(t *testing.T) {
	ft := DefaultFatTree()
	ft.K = 4
	f := NewFatTree(ft)
	edge := f.Switches[0] // edge0.0; hosts 2.. sit in other racks
	a, b := edge.Routes(f.Hosts[2].ID()), edge.Routes(f.Hosts[len(f.Hosts)-1].ID())
	if len(a) != 2 || len(b) != 2 || &a[0] != &b[0] {
		t.Fatalf("edge uplink sets not shared: %v vs %v", a, b)
	}
}

// TestRoutesOutOfRange checks lookups beyond the table: Routes returns
// nil, and a packet to such a node panics with "no route".
func TestRoutesOutOfRange(t *testing.T) {
	f := NewFatTree(DefaultFatTree())
	sw := f.Switches[0]
	for _, dst := range []netsim.NodeID{-1, netsim.NodeID(f.Net.NumNodes()), 1 << 30} {
		if got := sw.Routes(dst); got != nil {
			t.Errorf("Routes(%d) = %v, want nil", dst, got)
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "no route") {
			t.Fatalf("Receive to an unknown node panicked with %q, want a no-route panic", msg)
		}
	}()
	pkt := netsim.NewPacket()
	pkt.Src, pkt.Dst = f.Hosts[0].ID(), netsim.NodeID(f.Net.NumNodes())
	sw.Receive(pkt)
}
