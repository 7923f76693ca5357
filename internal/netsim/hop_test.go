package netsim

import (
	"testing"

	"amrt/internal/sim"
)

// hopBatches returns a constructor of batch senders: batch(k) sends k
// packets from a to b and runs the network until they are delivered.
func hopBatches(t *testing.T, n *Network, a, b *Host) (batch func(k int) func()) {
	got := 0
	b.Handler = func(*Packet) { got++ }
	return func(k int) func() {
		return func() {
			got = 0
			for i := 0; i < k; i++ {
				pkt := NewPacket()
				pkt.Flow, pkt.Type, pkt.Seq, pkt.Size = 1, Data, int32(i), MSS
				pkt.Src, pkt.Dst = a.ID(), b.ID()
				a.Send(pkt)
			}
			n.Run(sim.Forever)
			if got != k {
				t.Fatalf("delivered %d of %d packets", got, k)
			}
		}
	}
}

// A steady-state host → switch → host hop allocates nothing per packet:
// tx completion, delivery and the packet itself all come from pools.
func TestHopAllocatesNothing(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, sim.Microsecond, nil)
	send := hopBatches(t, n, a, b)(1)
	for i := 0; i < 1000; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("%v allocs per packet over two hops, want 0", allocs)
	}
}

// Across a 2-shard partition the switch → B hop crosses shards through
// the outbox, whose records carry the packet as data. A sharded Run has
// a fixed per-call cost (window goroutines and channels); the
// per-packet cost is the difference between a large and a small batch,
// and must be zero.
func TestCrossShardHopAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per window handoff")
	}
	n, a, b, sw := pair(t, 10*sim.Gbps, sim.Microsecond, nil)
	n.Partition(2, func(node Node) int {
		if node == b {
			return 1
		}
		return 0
	})
	if shardOf(a) == shardOf(b) || shardOf(sw) != shardOf(a) {
		t.Fatal("test premise: only the switch → B link should cross shards")
	}
	const small, large = 10, 100
	batch := hopBatches(t, n, a, b)
	few, many := batch(small), batch(large)
	for i := 0; i < 100; i++ {
		many()
	}
	base := testing.AllocsPerRun(200, few)
	if extra := testing.AllocsPerRun(200, many) - base; extra > 0 {
		t.Errorf("%v allocs per cross-shard packet, want 0", extra/(large-small))
	}
	if got := n.Shard(1).PipedIn; got == 0 {
		t.Error("no packet was piped into shard 1")
	}
}
