package sird

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

const poolBytes = 6 * netsim.MSS

// newIncast builds an n-sender fan with every flow aimed at the first
// receiver, under a SIRD instance whose pool bound is poolBytes.
func newIncast(n int) (*topo.Scenario, *Protocol, []*transport.Flow) {
	cfg := DefaultConfig()
	cfg.PoolBytes = poolBytes
	sc := topo.DefaultScenario()
	sc.SwitchQueue = cfg.SwitchQueue
	sc.HostQueue = cfg.HostQueue
	s := topo.NewFanN(sc, n)
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	var flows []*transport.Flow
	for i := 0; i < n; i++ {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 600_000, sim.Time(i)*sim.Microsecond))
	}
	return s, p, flows
}

// watch runs check every 5µs of virtual time until the horizon.
func watch(s *topo.Scenario, horizon sim.Time, check func()) {
	var tick func()
	tick = func() {
		check()
		if s.Net.Engine.Now() < horizon {
			s.Net.Engine.Schedule(5*sim.Microsecond, tick)
		}
	}
	s.Net.Engine.Schedule(0, tick)
}

// checkPool fails unless every pool is within its bound and its
// outstanding credit is exactly what its member flows hold charged.
func checkPool(t *testing.T, p *Protocol) {
	t.Helper()
	for id, ps := range p.pools {
		var charged int64
		for _, r := range ps.flows {
			charged += r.charged
		}
		if ps.outstanding < 0 || ps.outstanding > ps.bound || ps.outstanding != charged {
			t.Fatalf("host %d at %v: outstanding %d, bound %d, members charged %d",
				id, p.Now(), ps.outstanding, ps.bound, charged)
		}
	}
}

func TestPoolNeverExceedsBound(t *testing.T) {
	s, p, flows := newIncast(8)
	const horizon = 50 * sim.Millisecond
	var peak int64
	watch(s, horizon, func() {
		checkPool(t, p)
		if ps := p.pools[s.Receivers[0].ID()]; ps != nil && ps.outstanding > peak {
			peak = ps.outstanding
		}
	})
	s.Net.Run(horizon)
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete", f)
		}
	}
	if ps := p.pools[s.Receivers[0].ID()]; ps.bound != poolBytes {
		t.Errorf("pool bound %d, want the configured %d", ps.bound, poolBytes)
	}
	// The bound must actually have been reached, or the check proves
	// nothing about it.
	if peak != poolBytes {
		t.Errorf("peak outstanding %d never reached the bound %d", peak, poolBytes)
	}
}

func TestGrantBudgetHoldsThroughIncast(t *testing.T) {
	s, p, flows := newIncast(8)
	const horizon = 50 * sim.Millisecond
	watch(s, horizon, func() {
		if sent, auth := p.DataPacketsSent(), p.GrantAuthority(); sent > auth {
			t.Fatalf("at %v: %d data packets sent, only %d authorized", p.Now(), sent, auth)
		}
	})
	s.Net.Run(horizon)
	var npkts int64
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete", f)
		}
		npkts += int64(f.NPkts)
	}
	if sent, auth := p.DataPacketsSent(), p.GrantAuthority(); sent > auth || sent < npkts {
		t.Errorf("end: %d sent, %d authorized, %d packets in the flows", sent, auth, npkts)
	}
	if p.GrantsSent == 0 {
		t.Error("no pool grants: the incast never left the blind window")
	}
}

func TestDstCrashReturnsChargedCredit(t *testing.T) {
	s, p, flows := newIncast(4)
	dst := s.Receivers[0]
	crashAt := 2 * sim.Millisecond
	s.Net.Engine.Schedule(crashAt, func() {
		ps := p.pools[dst.ID()]
		r := p.receivers[flows[0].ID]
		if ps == nil || r == nil || r.charged == 0 {
			t.Fatalf("no charged credit on flow 1 at the crash; the test needs a busy pool")
		}
		before, charged := ps.outstanding, r.charged
		p.dropRcvState(flows[0])
		if ps.outstanding != before-charged {
			t.Errorf("dropRcvState: outstanding %d -> %d, want %d returned", before, ps.outstanding, charged)
		}
		for _, x := range ps.flows {
			if x == r {
				t.Error("dropRcvState left the flow in the pool")
			}
		}
		p.OnHostCrash(dst)
		if ps.outstanding != 0 || len(ps.flows) != 0 || len(p.receivers) != 0 {
			t.Errorf("after crash: outstanding %d, %d pool members, %d receivers; want all zero",
				ps.outstanding, len(ps.flows), len(p.receivers))
		}
	})
	const horizon = 200 * sim.Millisecond
	watch(s, horizon, func() { checkPool(t, p) })
	s.Net.Run(horizon)
	// The flows survive a receiver crash: re-announcement and data
	// arrivals rebuild receiver and pool state.
	for _, f := range flows {
		if !f.Done || f.Outcome != transport.OutcomeCompleted {
			t.Errorf("%v: done=%v outcome=%v, want completed", f, f.Done, f.Outcome)
		}
	}
}
