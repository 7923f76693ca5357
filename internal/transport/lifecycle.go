package transport

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// Hooks is what a stack plugs into the kernel's flow lifecycle. The
// kernel owns registration, the start event, and — for receiver-driven
// stacks — the RTS announce chain and the host-crash sweep; the hooks
// supply only what differs between protocols. The packet handlers are
// installed on each host as direct method values; every other hook runs
// once per flow or per crash, never per packet.
type Hooks struct {
	// ToSender and ToReceiver handle the packets addressed to the flow
	// sender and receiver (see Dispatcher).
	ToSender, ToReceiver func(pkt *netsim.Packet)

	// Start sends a responsive flow's first data and creates its sender
	// record. It runs on the source's shard at the flow's start, after
	// SenderStarted is set and, on receiver-driven stacks, after the RTS
	// left and the announce chain was armed. Unresponsive flows never
	// reach it.
	Start func(f *Flow)

	// ReceiverDriven selects the receiver-driven lifecycle: every flow
	// announces itself with an RTS at start and re-announces it until
	// the sender hears from the receiver, and OnHostCrash runs the
	// ownership sweep below. Sender-driven stacks leave it false and
	// supply their own crash semantics.
	ReceiverDriven bool
	// RTSDemand, if non-nil, returns the backlog advertisement stamped
	// on every RTS of f (SIRD's sender-informed demand).
	RTSDemand func(f *Flow) int64
	// DropReceiver forgets f's receiver state (required on
	// receiver-driven stacks); DropSender, if non-nil, forgets its sender
	// record. The crash sweep calls each only on the instance owning that
	// side of the flow.
	DropReceiver, DropSender func(f *Flow)
	// Crashed, if non-nil, runs after the crash sweep for host h with
	// the flows this instance aborted because h was their source, in
	// creation order. It drops per-host state the crash destroyed
	// (pacer queues, banked credit) and re-schedules what survives.
	Crashed func(h *netsim.Host, killed []*Flow)
}

// AddFlow registers a flow on both endpoints of this instance and
// schedules its start — the single-instance convenience path. A zero id
// auto-assigns one. The sharded runner instead splits registration
// across instances with AddPending/Release on the source shard and
// Adopt on the home shard.
func (k *Kernel) AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *Flow {
	f := k.NewFlow(id, src, dst, size, start)
	f.Released = true
	k.install(src)
	k.install(dst)
	k.Engine().ScheduleAt(start, func() { k.start(f) })
	return f
}

// AddUnresponsiveFlow registers a flow whose sender announces itself
// (on receiver-driven stacks) but never sends data — the §8.2 stress.
func (k *Kernel) AddUnresponsiveFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *Flow {
	f := k.AddFlow(id, src, dst, size, start)
	f.Unresponsive = true
	return f
}

// AddPending registers a dependent flow's sender side without
// scheduling a start; Release starts it when the parent completes.
func (k *Kernel) AddPending(id netsim.FlowID, src, dst *netsim.Host, size int64, unresponsive bool) *Flow {
	f := k.NewFlow(id, src, dst, size, 0)
	f.Unresponsive = unresponsive
	k.install(src)
	return f
}

// Release schedules a pending flow's start. It runs on the sender's
// shard and does not write f.Start — the flow's home shard records that
// when it handles the release signal.
func (k *Kernel) Release(f *Flow, start sim.Time) {
	k.Engine().ScheduleAt(start, func() { k.start(f) })
}

// Adopt registers a flow created by another instance on this instance's
// receiver side (flow table entry plus destination host handler). On a
// single-shard run the creating instance adopts its own flow, which
// just installs the destination handler.
func (k *Kernel) Adopt(f *Flow) {
	k.Register(f)
	k.install(f.Dst)
}

// install sets the stack's dispatcher as h's packet handler, once per
// host.
func (k *Kernel) install(h *netsim.Host) {
	if k.installed[h.ID()] {
		return
	}
	k.installed[h.ID()] = true
	Dispatcher{Kernel: k, ToSender: k.Hooks.ToSender, ToReceiver: k.Hooks.ToReceiver}.Install(h)
}

// start is the flow's start event on the source's shard. A
// receiver-driven flow announces itself first — even an unresponsive
// one, which exists to occupy receiver scheduling state.
func (k *Kernel) start(f *Flow) {
	f.SenderStarted = true
	if k.Hooks.ReceiverDriven {
		f.Src.Send(k.rts(f))
		k.armAnnounce(f, 3*k.Cfg.RTT)
	}
	if f.Unresponsive {
		return
	}
	k.Hooks.Start(f)
}

// rts builds an RTS for f, stamped with the stack's demand
// advertisement if it has one.
func (k *Kernel) rts(f *Flow) *netsim.Packet {
	p := k.NewCtrl(netsim.RTS, f, -1, false)
	if k.Hooks.RTSDemand != nil {
		p.Demand = k.Hooks.RTSDemand(f)
	}
	return p
}

// armAnnounce re-sends the flow's RTS with exponential backoff (3×RTT
// initial, 64×RTT cap) until the sender hears from the receiver. If the
// RTS and the entire blind window are lost — a link flap, a
// control-loss burst — the receiver never learns the flow exists, so
// no receiver-side timer can recover it; this sender-side announce is
// the only escape. It stops once receiver control traffic or the
// announce confirmation reaches the sender (SenderHeard — every later
// recovery is receiver-driven) or the completion signal does
// (SenderDone); both flags are sender-shard state, so the check never
// reads across shards.
func (k *Kernel) armAnnounce(f *Flow, interval sim.Time) {
	k.Engine().Schedule(interval, func() {
		if f.SenderHeard || f.SenderDone {
			return
		}
		f.Src.Send(k.rts(f))
		k.RTSReannounces++
		k.armAnnounce(f, min(2*interval, 64*k.Cfg.RTT))
	})
}

// ConfirmAnnounce tells f's sender, on the deterministic cross-shard
// control channel, that the receiver now holds state for the flow, so
// its re-announce chain stops. Receivers call it when they create flow
// state. Grants double as confirmation, but the scheduler may defer
// them arbitrarily under SRPT, and re-announcing until the first grant
// wastes control slots on the bottleneck. The signal takes one
// lookahead at every shard count, so announce behaviour is
// partition-independent.
func (k *Kernel) ConfirmAnnounce(f *Flow) {
	k.shard.Signal(f.Dst, f.Src, func() { f.SenderHeard = true })
}

// OnHostCrash is the receiver-driven crash sweep (sender-driven stacks
// define their own): it drops the protocol state this instance owns for
// flows touching the crashed host h. A crashed sender loses its send state,
// so its outgoing flows die with it (Outcome killed-by-crash). A
// crashed receiver loses its flow state, but the flow survives: the
// sender's re-announce chain — restarted here if the flow had already
// announced — rebuilds receiver state from scratch after the host
// restarts. A flow whose start is still pending needs no re-announce;
// its start event announces it, and arming one early would move its
// effective start.
//
// On a sharded run the fault layer fires this hook on every shard at
// the crash instant; each instance handles only the flow halves its
// shard owns (receiver side on the home shard, sender side on the
// source shard), so the aggregate effect equals the single-engine run.
func (k *Kernel) OnHostCrash(h *netsim.Host) {
	var killed []*Flow
	for _, f := range k.ordered {
		switch h {
		case f.Src:
			if k.OwnsReceiver(f) && !f.Done {
				k.Hooks.DropReceiver(f)
				k.Abort(f)
				killed = append(killed, f)
			}
			if k.OwnsSender(f) && !f.SenderDone {
				if k.Hooks.DropSender != nil {
					k.Hooks.DropSender(f)
				}
				// The flow can never finish; stop the announce chain.
				f.SenderDone = true
			}
		case f.Dst:
			if k.OwnsReceiver(f) && !f.Done {
				k.Hooks.DropReceiver(f)
			}
			if k.OwnsSender(f) && f.SenderStarted && !f.SenderDone {
				// The crash destroyed everything the receiver's earlier
				// traffic proved; clear the heard flag so re-announcement
				// resumes.
				f.SenderHeard = false
				k.armAnnounce(f, 3*k.Cfg.RTT)
			}
		}
	}
	if k.Hooks.Crashed != nil {
		k.Hooks.Crashed(h, killed)
	}
}
