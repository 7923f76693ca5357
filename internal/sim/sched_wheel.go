package sim

import "math/bits"

// wheelSched is a hierarchical timing wheel: the default scheduler.
//
// Virtual time is quantized into 64 ns ticks. Three wheel levels of 256
// slots each cover [now, now+2^24 ticks) ≈ 1.07 s of look-ahead: level 0
// holds one tick per slot, level 1 one level-0 rotation (16.4 µs) per
// slot, level 2 one level-1 rotation (4.2 ms) per slot. Events beyond the
// cursor's current top-level region wait in an overflow min-heap and
// migrate into the wheel when the cursor enters their region (the "heap
// fallback" — datacenter
// workloads virtually never hit it, but correctness never depends on
// that). Per-level occupancy bitmaps let the cursor jump straight to the
// next non-empty bucket, so advancing across idle virtual time is O(1)
// per 64-bit bitmap word rather than O(elapsed ticks).
//
// Determinism contract: dispatch order is exactly ascending (at, seq) —
// byte-identical to heapSched. Buckets are unordered; ordering is
// restored by turning the current tick's bucket into the "due" run and
// insertion-sorting it on (at, seq) before dispatch, and events
// scheduled for the current tick while it is dispatching are inserted
// into the run in order. Because level-0 buckets are a single tick wide
// and seq is globally monotonic, no coarser bucket can ever mix two
// events across a time boundary without the sort re-separating them. A
// tick holds a handful of events, mostly already in seq order, so the
// insertion sort costs little more than a copy.
type wheelSched struct {
	// curTick is the wheel cursor: floor(dispatch position / 64 ns).
	// Invariants: curTick never exceeds the tick of the earliest pending
	// event, and every pending event's tick is >= curTick.
	curTick int64

	// due[dueHead:] holds the undispatched events of tick curTick,
	// sorted by (at, seq); due[:dueHead] is dispatched and nil. Both
	// reset to empty when the run is used up.
	due     []*event
	dueHead int

	// levels[l][s] is the bucket for slot s of level l; occ[l] is the
	// per-slot occupancy bitmap of level l.
	levels [wheelLevels][wheelSlots][]*event
	occ    [wheelLevels][wheelSlots / 64]uint64

	// overflow is the far-future fallback: a min-heap on (at, seq) of
	// events beyond curTick's top-level region at insert time.
	overflow []*event

	// spare holds the emptied, zero-length backing arrays of cascaded
	// level-1 and level-2 buckets; place reuses them for buckets that
	// have none, so bucket capacity follows the live load instead of
	// every slot keeping its own peak.
	spare [][]*event

	count int
}

const (
	wheelTickShift = 6 // 64 ns per level-0 tick
	wheelBits      = 8 // 256 slots per level
	wheelSlots     = 1 << wheelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 3
	// wheelSpanTicks is the total look-ahead of the wheel, in ticks.
	wheelSpanTicks = int64(1) << (wheelBits * wheelLevels)
)

func newWheelSched() *wheelSched { return &wheelSched{} }

func (w *wheelSched) pending() int { return w.count }

func (w *wheelSched) schedule(ev *event, _ Time) {
	w.count++
	w.insert(ev)
}

// insert places ev into due, a wheel bucket, or the overflow heap.
//
// Placement is by region, not distance: an event goes to the lowest
// level whose *current rotation* contains its tick. That keeps every
// occupied slot at or ahead of the cursor's slot within its rotation —
// no bucket ever wraps around behind the cursor — which is what lets
// next() skip empty high-level slots via the occupancy bitmaps without
// ever stranding a lower-level bucket. Events beyond the current
// top-level region (even nearby ones that merely cross its boundary)
// wait in the overflow heap; they migrate when the cursor enters their
// region, and since everything in the wheel precedes the region
// boundary, the split never reorders dispatch.
func (w *wheelSched) insert(ev *event) {
	tick := int64(ev.at) >> wheelTickShift
	cur := w.curTick
	switch {
	case tick <= cur:
		// Current tick (the engine guarantees at >= now, so tick is
		// never truly below the cursor — only equal).
		w.insertDue(ev)
	case tick>>wheelBits == cur>>wheelBits:
		w.place(0, int(tick)&wheelMask, ev)
	case tick>>(2*wheelBits) == cur>>(2*wheelBits):
		w.place(1, int(tick>>wheelBits)&wheelMask, ev)
	case tick>>(3*wheelBits) == cur>>(3*wheelBits):
		w.place(2, int(tick>>(2*wheelBits))&wheelMask, ev)
	default:
		evheapPush(&w.overflow, ev)
	}
}

func (w *wheelSched) place(level, slot int, ev *event) {
	b := w.levels[level][slot]
	if b == nil && len(w.spare) > 0 {
		b = w.spare[len(w.spare)-1]
		w.spare[len(w.spare)-1] = nil
		w.spare = w.spare[:len(w.spare)-1]
	}
	w.levels[level][slot] = append(b, ev)
	w.occ[level][slot>>6] |= 1 << uint(slot&63)
}

// insertDue adds ev to the due run at its (at, seq) position. Events
// arriving mid-tick carry the newest seq, so the backward scan usually
// stops at once.
func (w *wheelSched) insertDue(ev *event) {
	if w.dueHead > 0 && len(w.due) == cap(w.due) {
		// Reclaim the dispatched prefix before growing the array.
		n := copy(w.due, w.due[w.dueHead:])
		clear(w.due[n:])
		w.due, w.dueHead = w.due[:n], 0
	}
	w.due = append(w.due, ev)
	i := len(w.due) - 1
	for ; i > w.dueHead && eventBefore(ev, w.due[i-1]); i-- {
		w.due[i] = w.due[i-1]
	}
	w.due[i] = ev
}

// nextAt implements scheduler: a lower bound on the earliest pending
// event's time. The due run and the overflow heap give exact times; wheel
// buckets contribute their slot's start time, which undershoots by at
// most the slot span. Levels need only be consulted until the first
// occupied one, since every event in level l+1 lies beyond level l's
// current rotation, but the overflow heap must always be folded in —
// between runs it may hold events the cursor has since caught up to.
func (w *wheelSched) nextAt() (Time, bool) {
	if w.count == 0 {
		return 0, false
	}
	if w.dueHead < len(w.due) {
		return w.due[w.dueHead].at, true
	}
	bound := Time(0)
	have := false
	slot0 := int(w.curTick) & wheelMask
	slot1 := int(w.curTick>>wheelBits) & wheelMask
	slot2 := int(w.curTick>>(2*wheelBits)) & wheelMask
	if s, ok := w.nextOcc(0, slot0); ok {
		bound = Time((w.curTick - int64(slot0) + int64(s)) << wheelTickShift)
		have = true
	} else if s, ok := w.nextOcc(1, slot1+1); ok {
		t := (w.curTick>>wheelBits - int64(slot1) + int64(s)) << wheelBits
		bound, have = Time(t<<wheelTickShift), true
	} else if s, ok := w.nextOcc(2, slot2+1); ok {
		t := (w.curTick>>(2*wheelBits) - int64(slot2) + int64(s)) << (2 * wheelBits)
		bound, have = Time(t<<wheelTickShift), true
	}
	if len(w.overflow) > 0 && (!have || w.overflow[0].at < bound) {
		bound, have = w.overflow[0].at, true
	}
	if !have {
		// count > 0 but no bucket found: defensive, should not happen.
		bound = Time(w.curTick << wheelTickShift)
	}
	return bound, true
}

// next implements scheduler: pop the earliest event at or before limit,
// advancing the cursor lazily and cascading higher-level buckets as
// their time arrives.
func (w *wheelSched) next(limit Time) *event {
	limitTick := int64(limit) >> wheelTickShift
	for {
		if w.dueHead < len(w.due) {
			ev := w.due[w.dueHead]
			if ev.at > limit {
				return nil
			}
			w.due[w.dueHead] = nil
			if w.dueHead++; w.dueHead == len(w.due) {
				w.due, w.dueHead = w.due[:0], 0
			}
			w.count--
			return ev
		}
		if w.count == 0 {
			return nil
		}
		// Keep the overflow invariant: anything inside the current
		// top-level region must live in the wheel before we pick the
		// next bucket, otherwise a far-future event scheduled early
		// could be dispatched after a later event scheduled recently.
		w.drainOverflow()

		// Level 0: the rest of the current rotation.
		slot0 := int(w.curTick) & wheelMask
		if s, ok := w.nextOcc(0, slot0); ok {
			t := w.curTick - int64(slot0) + int64(s)
			if t > limitTick {
				w.clamp(limitTick)
				return nil
			}
			w.curTick = t
			w.dumpDue(s)
			continue
		}
		// Level 1: the next occupied slot strictly after the current one.
		slot1 := int(w.curTick>>wheelBits) & wheelMask
		if s, ok := w.nextOcc(1, slot1+1); ok {
			t := (w.curTick>>wheelBits - int64(slot1) + int64(s)) << wheelBits
			if t > limitTick {
				w.clamp(limitTick)
				return nil
			}
			w.curTick = t
			w.cascade(1, s)
			continue
		}
		// Level 2.
		slot2 := int(w.curTick>>(2*wheelBits)) & wheelMask
		if s, ok := w.nextOcc(2, slot2+1); ok {
			t := (w.curTick>>(2*wheelBits) - int64(slot2) + int64(s)) << (2 * wheelBits)
			if t > limitTick {
				w.clamp(limitTick)
				return nil
			}
			w.curTick = t
			w.cascade(2, s)
			continue
		}
		// Wheel empty: jump to the overflow's earliest event.
		t := int64(w.overflow[0].at) >> wheelTickShift
		if t > limitTick {
			w.clamp(limitTick)
			return nil
		}
		w.curTick = t
		w.drainOverflow()
	}
}

// clamp moves the cursor up to the run horizon after establishing that
// no event lies at or before it, so that the next Run resumes the scan
// from the horizon instead of rescanning the idle gap. It never moves
// the cursor backwards and — because the skipped region was verified
// empty — never strands an un-cascaded bucket behind the cursor.
func (w *wheelSched) clamp(limitTick int64) {
	if limitTick > w.curTick {
		w.curTick = limitTick
	}
}

// dumpDue makes level-0 slot s (the bucket of tick curTick) the due
// run, restoring exact (at, seq) order for dispatch. The due run is
// empty here, so the bucket and the run just swap backing arrays.
func (w *wheelSched) dumpDue(s int) {
	due := w.levels[0][s]
	w.levels[0][s] = w.due[:0]
	w.occ[0][s>>6] &^= 1 << uint(s&63)
	for i := 1; i < len(due); i++ {
		ev := due[i]
		j := i
		for ; j > 0 && eventBefore(ev, due[j-1]); j-- {
			due[j] = due[j-1]
		}
		due[j] = ev
	}
	w.due, w.dueHead = due, 0
}

// cascade redistributes the bucket at (level, s) — whose span the cursor
// has just reached — into the levels below it (or the due run), and
// returns the bucket's array to the spare list.
func (w *wheelSched) cascade(level, s int) {
	bucket := w.levels[level][s]
	w.levels[level][s] = nil
	w.occ[level][s>>6] &^= 1 << uint(s&63)
	for i, ev := range bucket {
		bucket[i] = nil
		w.insert(ev)
	}
	w.spare = append(w.spare, bucket[:0])
}

// drainOverflow migrates overflow events that now fall within the
// cursor's top-level region (where insert is guaranteed to land them in
// the wheel, never back in overflow). Amortized O(1): a cheap peek
// unless events actually cross the region boundary.
func (w *wheelSched) drainOverflow() {
	for len(w.overflow) > 0 {
		tick := int64(w.overflow[0].at) >> wheelTickShift
		if tick>>(3*wheelBits) != w.curTick>>(3*wheelBits) {
			return
		}
		w.insert(evheapPop(&w.overflow))
	}
}

// nextOcc returns the first occupied slot of level at index >= from,
// scanning the occupancy bitmap word-wise.
func (w *wheelSched) nextOcc(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	if v := w.occ[level][word] >> uint(from&63) << uint(from&63); v != 0 {
		return word<<6 + bits.TrailingZeros64(v), true
	}
	for word++; word < wheelSlots/64; word++ {
		if v := w.occ[level][word]; v != 0 {
			return word<<6 + bits.TrailingZeros64(v), true
		}
	}
	return 0, false
}

// evheapPush and evheapPop maintain a binary min-heap of events ordered
// by eventBefore: the heap scheduler and the wheel's overflow heap.
func evheapPush(h *[]*event, ev *event) {
	items := append(*h, ev)
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(items[i], items[parent]) {
			break
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
	*h = items
}

func evheapPop(h *[]*event) *event {
	items := *h
	ev := items[0]
	n := len(items) - 1
	items[0] = items[n]
	items[n] = nil
	items = items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventBefore(items[l], items[least]) {
			least = l
		}
		if r < n && eventBefore(items[r], items[least]) {
			least = r
		}
		if least == i {
			break
		}
		items[i], items[least] = items[least], items[i]
		i = least
	}
	*h = items
	return ev
}
