package transport

import (
	"reflect"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

const testRTT = 100 * sim.Microsecond

// lifecycleProbe plugs recording hooks into a receiver-driven kernel.
type lifecycleProbe struct {
	k        *Kernel
	rts      []sim.Time // send time of every RTS (initial and re-announces)
	starts   []netsim.FlowID
	dropRcv  []netsim.FlowID
	dropSnd  []netsim.FlowID
	crashed  int
	killed   []netsim.FlowID
	onRcvPkt func(pkt *netsim.Packet)
}

func newProbe(net *netsim.Network, sh *netsim.Shard) *lifecycleProbe {
	k := NewKernel(net, Config{RTT: testRTT, Shard: sh})
	pr := &lifecycleProbe{k: &k}
	k.Hooks = Hooks{
		ToSender: func(*netsim.Packet) {},
		ToReceiver: func(pkt *netsim.Packet) {
			if pr.onRcvPkt != nil {
				pr.onRcvPkt(pkt)
			}
		},
		Start:          func(f *Flow) { pr.starts = append(pr.starts, f.ID) },
		ReceiverDriven: true,
		RTSDemand: func(f *Flow) int64 {
			pr.rts = append(pr.rts, k.Now())
			return f.Size
		},
		DropReceiver: func(f *Flow) { pr.dropRcv = append(pr.dropRcv, f.ID) },
		DropSender:   func(f *Flow) { pr.dropSnd = append(pr.dropSnd, f.ID) },
		Crashed: func(_ *netsim.Host, killed []*Flow) {
			pr.crashed++
			for _, f := range killed {
				pr.killed = append(pr.killed, f.ID)
			}
		},
	}
	return pr
}

// gaps returns the RTS inter-send intervals in RTTs.
func (pr *lifecycleProbe) gaps() []sim.Time {
	var g []sim.Time
	for i := 1; i < len(pr.rts); i++ {
		g = append(g, (pr.rts[i]-pr.rts[i-1])/testRTT)
	}
	return g
}

// newLinkedHosts builds a — s — b with 1µs links, so the network has a
// positive lookahead and can be partitioned.
func newLinkedHosts() (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := netsim.New()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("s")
	n.Connect(a, sw, 10*sim.Gbps, sim.Microsecond, nil, nil)
	n.Connect(b, sw, 10*sim.Gbps, sim.Microsecond, nil, nil)
	sw.SetRoutes(a.ID(), []*netsim.Port{sw.Ports()[0]})
	sw.SetRoutes(b.ID(), []*netsim.Port{sw.Ports()[1]})
	return n, a, b
}

func TestAnnounceBackoffSchedule(t *testing.T) {
	n, a, b := newLinkedHosts()
	pr := newProbe(n, nil)
	pr.k.AddFlow(1, a, b, 10_000, 0)
	n.Run(222 * testRTT)
	want := []sim.Time{3, 6, 12, 24, 48, 64, 64}
	if got := pr.gaps(); !reflect.DeepEqual(got, want) {
		t.Errorf("re-announce gaps = %v RTT, want %v", got, want)
	}
	if pr.k.RTSReannounces != int64(len(want)) {
		t.Errorf("RTSReannounces = %d, want %d", pr.k.RTSReannounces, len(want))
	}
	if !reflect.DeepEqual(pr.starts, []netsim.FlowID{1}) {
		t.Errorf("Start hook ran for %v, want [1]", pr.starts)
	}
}

func TestAnnounceStopsOnSenderHeard(t *testing.T) {
	n, a, b := newLinkedHosts()
	pr := newProbe(n, nil)
	// The receiver confirms on the first RTS it sees.
	confirmed := false
	pr.onRcvPkt = func(pkt *netsim.Packet) {
		if f := pr.k.Flows[pkt.Flow]; f != nil && pkt.Type == netsim.RTS && !confirmed {
			confirmed = true
			pr.k.ConfirmAnnounce(f)
		}
	}
	f := pr.k.AddFlow(1, a, b, 10_000, 0)
	n.Run(300 * testRTT)
	if !f.SenderHeard || len(pr.rts) != 1 || pr.k.RTSReannounces != 0 {
		t.Errorf("heard=%v RTS sends=%d re-announces=%d, want the initial RTS only",
			f.SenderHeard, len(pr.rts), pr.k.RTSReannounces)
	}
}

func TestAnnounceStopsOnSenderDone(t *testing.T) {
	n, a, b := newLinkedHosts()
	pr := newProbe(n, nil)
	f := pr.k.AddFlow(1, a, b, 10_000, 0)
	n.Engine.Schedule(10*testRTT, func() { f.SenderDone = true })
	n.Run(300 * testRTT)
	if want := []sim.Time{3, 6}; !reflect.DeepEqual(pr.gaps(), want) {
		t.Errorf("re-announce gaps = %v RTT, want %v (stop after SenderDone at 10 RTT)", pr.gaps(), want)
	}
}

func TestUnresponsiveFlowAnnouncesWithoutStart(t *testing.T) {
	n, a, b := newLinkedHosts()
	pr := newProbe(n, nil)
	f := pr.k.AddUnresponsiveFlow(1, a, b, 10_000, 0)
	n.Run(10 * testRTT)
	if !f.SenderStarted || len(pr.rts) != 3 || len(pr.starts) != 0 {
		t.Errorf("started=%v RTS sends=%d Start hook calls=%d, want true/3/0",
			f.SenderStarted, len(pr.rts), len(pr.starts))
	}
}

// TestDstCrashBeforeStartDoesNotAnnounceEarly is the regression for a
// receiver crash that arms the re-announce chain of a flow whose start
// event is still pending: the flow's first RTS must leave at its start,
// not 3 RTT after the crash.
func TestDstCrashBeforeStartDoesNotAnnounceEarly(t *testing.T) {
	n, a, b := newLinkedHosts()
	pr := newProbe(n, nil)
	f := pr.k.AddFlow(1, a, b, 10_000, 50*testRTT)
	n.Engine.Schedule(10*testRTT, func() { pr.k.OnHostCrash(b) })
	n.Run(60 * testRTT)
	if len(pr.rts) == 0 || pr.rts[0] != f.Start {
		t.Fatalf("first RTS at %v, want the flow start %v", pr.rts, f.Start)
	}
	if !reflect.DeepEqual(pr.dropRcv, []netsim.FlowID{1}) || len(pr.dropSnd) != 0 || f.Done {
		t.Errorf("dropRcv=%v dropSnd=%v done=%v: a receiver crash drops receiver state only",
			pr.dropRcv, pr.dropSnd, f.Done)
	}
}

func TestDstCrashAfterStartRearmsAnnounce(t *testing.T) {
	n, a, b := newLinkedHosts()
	pr := newProbe(n, nil)
	f := pr.k.AddFlow(1, a, b, 10_000, 0)
	n.Engine.Schedule(5*testRTT, func() { f.SenderHeard = true })
	n.Engine.Schedule(20*testRTT, func() { pr.k.OnHostCrash(b) })
	n.Run(30 * testRTT)
	// 0: start, 3: re-announce, heard at 5 (the chain stops at 9), the
	// crash at 20 re-arms from scratch: 23, then 29.
	want := []sim.Time{0, 3 * testRTT, 23 * testRTT, 29 * testRTT}
	if !reflect.DeepEqual(pr.rts, want) || f.SenderHeard {
		t.Errorf("RTS sends at %v heard=%v, want %v and the heard flag cleared", pr.rts, f.SenderHeard, want)
	}
}

// TestSrcCrashSplitsAcrossShards runs a flow whose sender and receiver
// live on different engine shards and crashes its source: the home
// (receiver) instance aborts the flow and hands it to the crash tail,
// the source instance drops its sender record and sets SenderDone.
func TestSrcCrashSplitsAcrossShards(t *testing.T) {
	n, a, b := newLinkedHosts()
	n.Partition(2, func(node netsim.Node) int {
		if node == netsim.Node(b) {
			return 1
		}
		return 0
	})
	src, home := newProbe(n, n.Shard(0)), newProbe(n, n.Shard(1))
	f := src.k.AddPending(1, a, b, 10_000, false)
	home.k.Adopt(f)
	src.k.Release(f, 0)
	crashAt := 10 * testRTT
	n.Shard(0).Eng().Schedule(crashAt, func() { src.k.OnHostCrash(a) })
	n.Shard(1).Eng().Schedule(crashAt, func() { home.k.OnHostCrash(a) })
	n.Run(300 * testRTT)

	if !f.Done || f.Outcome != OutcomeKilledByCrash || f.End != crashAt {
		t.Errorf("done=%v outcome=%v end=%v, want killed by crash at %v", f.Done, f.Outcome, f.End, crashAt)
	}
	if !f.SenderDone {
		t.Error("source instance did not set SenderDone")
	}
	if !reflect.DeepEqual(home.dropRcv, []netsim.FlowID{1}) || len(home.dropSnd) != 0 ||
		!reflect.DeepEqual(home.killed, []netsim.FlowID{1}) {
		t.Errorf("home: dropRcv=%v dropSnd=%v killed=%v, want [1] [] [1]", home.dropRcv, home.dropSnd, home.killed)
	}
	if len(src.dropRcv) != 0 || !reflect.DeepEqual(src.dropSnd, []netsim.FlowID{1}) || len(src.killed) != 0 {
		t.Errorf("source: dropRcv=%v dropSnd=%v killed=%v, want [] [1] []", src.dropRcv, src.dropSnd, src.killed)
	}
	if home.crashed != 1 || src.crashed != 1 {
		t.Errorf("crash tail ran %d/%d times on home/source, want 1/1", home.crashed, src.crashed)
	}
	// The announce chain stopped at the crash: re-announces at 3 and 9 RTT
	// only, none after SenderDone.
	if want := []sim.Time{3, 6}; !reflect.DeepEqual(src.gaps(), want) {
		t.Errorf("re-announce gaps = %v RTT, want %v", src.gaps(), want)
	}
}
