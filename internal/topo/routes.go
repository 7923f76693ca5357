// Package topo builds the network topologies used in the paper's
// evaluation — leaf–spine fabrics, dumbbells, multi-bottleneck chains and
// the two testbed layouts — and installs shortest-path ECMP routes.
package topo

import (
	"fmt"

	"amrt/internal/netsim"
)

// InstallShortestPathRoutes computes, for every (switch, destination
// host) pair, the set of egress ports on shortest paths and installs it
// as the switch's equal-cost route to that host. Each set lists the
// switch's ports in creation order. It must be called after all links
// exist.
//
// The computation is a reverse BFS from each host, so it works for any
// topology the builders in this package produce (and any custom one),
// with all-equal link weights. Everything is indexed by NodeID: one
// distance array and one queue serve every destination, and one scratch
// buffer collects each candidate set, which netsim.Switch.SetRoutes
// interns, so the hosts behind the same uplinks share one slice.
func InstallShortestPathRoutes(n *netsim.Network) {
	// in[v] lists the owners of the ports leading to node v, once per
	// port; next[i][j] is the far end of switch i's port j.
	in := make([][]netsim.NodeID, n.NumNodes())
	next := make([][]netsim.NodeID, len(n.Switches()))
	for i, s := range n.Switches() {
		next[i] = make([]netsim.NodeID, 0, len(s.Ports()))
		for _, p := range s.Ports() {
			to := p.Link().To.ID()
			in[to] = append(in[to], s.ID())
			next[i] = append(next[i], to)
		}
	}
	for _, h := range n.Hosts() {
		if p := h.NIC(); p != nil {
			to := p.Link().To.ID()
			in[to] = append(in[to], h.ID())
		}
	}

	dist := make([]int32, n.NumNodes())
	queue := make([]netsim.NodeID, 0, n.NumNodes())
	var cands []*netsim.Port
	for _, dst := range n.Hosts() {
		if dst.NIC() == nil {
			continue
		}
		// BFS over reverse edges from the destination host; -1 marks a
		// node that cannot reach it.
		for i := range dist {
			dist[i] = -1
		}
		dist[dst.ID()] = 0
		queue = append(queue[:0], dst.ID())
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, id := range in[cur] {
				if dist[id] < 0 {
					dist[id] = dist[cur] + 1
					queue = append(queue, id)
				}
			}
		}
		for i, s := range n.Switches() {
			d := dist[s.ID()]
			if d <= 0 {
				continue // switch cannot reach dst
			}
			cands = cands[:0]
			for j, to := range next[i] {
				if dist[to] == d-1 {
					cands = append(cands, s.Ports()[j])
				}
			}
			s.SetRoutes(dst.ID(), cands)
		}
	}
}

// CheckConnected panics if any switch lacks a route to any host; useful
// as a builder postcondition.
func CheckConnected(n *netsim.Network) {
	for _, s := range n.Switches() {
		for _, h := range n.Hosts() {
			if len(s.Routes(h.ID())) == 0 {
				panic(fmt.Sprintf("topo: switch %s has no route to host %s", s.Name(), h.Name()))
			}
		}
	}
}
