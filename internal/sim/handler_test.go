package sim

import "testing"

// recorder is a typed-event handler that logs its operands.
type recorder struct{ got []any }

func (r *recorder) Fire(arg any) { r.got = append(r.got, arg) }

// counter is a typed-event handler that only counts.
type counter struct{ n int }

func (c *counter) Fire(any) { c.n++ }

// Typed and closure events share the auto band's FIFO sequence: at one
// instant they dispatch in scheduling order, whichever form each took.
func TestTypedEventsInterleaveWithClosures(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		r := &recorder{}
		ops := []*int{new(int), new(int), new(int)}
		e.ScheduleHandler(5, r, ops[0])
		e.ScheduleAt(5, func() { r.got = append(r.got, "closure") })
		e.ScheduleHandler(5, r, ops[1])
		e.ScheduleKeyedHandler(5, 7, r, ops[2]) // keyed band: first
		e.RunAll()
		want := []any{ops[2], ops[0], "closure", ops[1]}
		if len(r.got) != len(want) {
			t.Fatalf("dispatched %v, want %v", r.got, want)
		}
		for i := range want {
			if r.got[i] != want[i] {
				t.Fatalf("dispatch %d = %v, want %v", i, r.got[i], want[i])
			}
		}
		if e.Executed != 4 {
			t.Errorf("Executed = %d, want 4", e.Executed)
		}
	})
}

// A cancelled typed event never fires, releases its handler and operand
// at once, and its Timer stays inert after the event is recycled and
// reissued to a new schedule.
func TestCancelledTypedEventNeverFires(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		r := &recorder{}
		op := new(int)
		stale := e.ScheduleKeyedHandler(10, 1, r, op)
		if !stale.Cancel() {
			t.Fatal("Cancel of a pending typed event reported false")
		}
		if stale.ev.h != nil || stale.ev.arg != nil {
			t.Error("Cancel kept the handler or operand reachable")
		}
		e.RunAll()
		if len(r.got) != 0 {
			t.Fatalf("cancelled typed event fired with %v", r.got)
		}
		// The drained event is back on the free list; the next schedule
		// reuses it under a new generation.
		fresh := e.ScheduleHandler(20, r, op)
		if fresh.ev != stale.ev {
			t.Fatal("test premise: the cancelled event was not reused")
		}
		if stale.Active() || stale.Cancel() {
			t.Error("stale Timer acts on the recycled event")
		}
		if !fresh.Active() {
			t.Error("stale Cancel disturbed the reissued event")
		}
		e.RunAll()
		if len(r.got) != 1 || r.got[0] != op {
			t.Fatalf("reissued event dispatched %v, want [%v]", r.got, op)
		}
	})
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil handler did not panic")
		}
	}()
	e.ScheduleHandler(1, nil, nil)
}

// Steady-state scheduling allocates nothing on either path: a typed
// keyed event with a pointer operand, and a plain func() (the adapter
// into the shared dispatch path must not box it).
func TestScheduleSteadyStateAllocatesNothing(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		c := &counter{}
		op := new(int)
		key := uint64(0)
		keyed := func() {
			e.ScheduleKeyedHandler(e.Now()+100, key, c, op)
			key++
			e.RunAll()
		}
		fn := func() { c.n++ }
		closure := func() {
			e.Schedule(100, fn)
			e.RunAll()
		}
		// Warm the free list and one full level-1 rotation of wheel
		// buckets (4.2 ms of 100 ns steps).
		for i := 0; i < 50000; i++ {
			keyed()
		}
		if a := testing.AllocsPerRun(1000, keyed); a != 0 {
			t.Errorf("ScheduleKeyedHandler: %v allocs per event, want 0", a)
		}
		if a := testing.AllocsPerRun(1000, closure); a != 0 {
			t.Errorf("Schedule(func()): %v allocs per event, want 0", a)
		}
		if want := 50000 + 2*1001; c.n != want {
			t.Errorf("handler ran %d times, want %d", c.n, want)
		}
	})
}
