package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file checks the production scheduler against a trivially-correct
// reference model: a flat slice scanned for the (time, seq) minimum on
// every pop. Both are driven with the same randomized op sequence —
// schedules (including equal-time bursts), cancels (including canceling
// fired and already-canceled events), Stop events, and RunUntil calls —
// and must agree on firing order, Pending, Fired, and Now at every step.

// modelEvent is one pending event in the reference model.
type modelEvent struct {
	at   Time
	seq  uint64
	id   int
	stop bool
}

// model is the reference scheduler. It makes no attempt at efficiency:
// correctness must be obvious by inspection.
type model struct {
	now    Time
	fired  uint64
	events []modelEvent
}

func (m *model) schedule(at Time, seq uint64, id int, stop bool) {
	m.events = append(m.events, modelEvent{at: at, seq: seq, id: id, stop: stop})
}

// cancel removes the event with the given schedule sequence, reporting
// whether it was still pending.
func (m *model) cancel(seq uint64) bool {
	for i, e := range m.events {
		if e.seq == seq {
			m.events = append(m.events[:i], m.events[i+1:]...)
			return true
		}
	}
	return false
}

// popMin removes and returns the pending event with the smallest
// (at, seq) not after the horizon.
func (m *model) popMin(horizon Time) (modelEvent, bool) {
	best := -1
	for i, e := range m.events {
		if e.at > horizon {
			continue
		}
		if best < 0 || e.at < m.events[best].at ||
			(e.at == m.events[best].at && e.seq < m.events[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return modelEvent{}, false
	}
	e := m.events[best]
	m.events = append(m.events[:best], m.events[best+1:]...)
	return e, true
}

// runUntil mirrors Scheduler.RunUntil: fire everything at or before the
// horizon in (at, seq) order, advancing the clock to the horizon unless a
// stop event halts the run at its own time. It returns the fired ids and
// whether a stop event ended the run.
func (m *model) runUntil(horizon Time) ([]int, bool) {
	var order []int
	for {
		e, ok := m.popMin(horizon)
		if !ok {
			m.now = horizon
			return order, false
		}
		m.now = e.at
		m.fired++
		if e.stop {
			return order, true
		}
		order = append(order, e.id)
	}
}

// run mirrors Scheduler.Run: drain the whole queue, leaving the clock at
// the last fired event.
func (m *model) run() ([]int, bool) {
	var order []int
	for {
		e, ok := m.popMin(Time(1e18))
		if !ok {
			return order, false
		}
		m.now = e.at
		m.fired++
		if e.stop {
			return order, true
		}
		order = append(order, e.id)
	}
}

func TestSchedulerMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testSchedulerAgainstModel(t, seed)
		})
	}
}

func testSchedulerAgainstModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := NewScheduler()
	m := &model{}

	var got []int
	type scheduled struct {
		h   Handle
		seq uint64
	}
	var handles []scheduled
	var nextSeq uint64

	check := func(ctx string) {
		t.Helper()
		if s.Pending() != len(m.events) {
			t.Fatalf("%s: Pending = %d, model has %d", ctx, s.Pending(), len(m.events))
		}
		if s.Fired() != m.fired {
			t.Fatalf("%s: Fired = %d, model fired %d", ctx, s.Fired(), m.fired)
		}
		if s.Now() != m.now {
			t.Fatalf("%s: Now = %v, model at %v", ctx, s.Now(), m.now)
		}
	}

	schedule := func(at Time, stop bool) {
		t.Helper()
		id := int(nextSeq)
		var fn func()
		if stop {
			fn = s.Stop
		} else {
			fn = func() { got = append(got, id) }
		}
		h, err := s.AtArg(at, func(any) { fn() }, nil)
		if err != nil {
			t.Fatalf("At(%v): %v", at, err)
		}
		m.schedule(at, nextSeq, id, stop)
		handles = append(handles, scheduled{h: h, seq: nextSeq})
		nextSeq++
	}

	const ops = 400
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 3: // single schedule, At or After
			delay := Time(rng.Intn(20)) / 2
			if rng.Intn(2) == 0 {
				schedule(s.Now()+delay, false)
			} else {
				id := int(nextSeq)
				h, err := s.AfterArg(delay, func(any) { got = append(got, id) }, nil)
				if err != nil {
					t.Fatalf("After(%v): %v", delay, err)
				}
				m.schedule(m.now+delay, nextSeq, id, false)
				handles = append(handles, scheduled{h: h, seq: nextSeq})
				nextSeq++
			}
		case r < 5: // equal-time burst
			at := s.Now() + Time(rng.Intn(10))
			for k := rng.Intn(5) + 2; k > 0; k-- {
				schedule(at, false)
			}
		case r == 5: // stop event
			schedule(s.Now()+Time(rng.Intn(10)), true)
		case r < 8: // cancel a random handle: pending, fired, or canceled
			if len(handles) == 0 {
				continue
			}
			pick := handles[rng.Intn(len(handles))]
			gotOK := pick.h.Cancel()
			wantOK := m.cancel(pick.seq)
			if gotOK != wantOK {
				t.Fatalf("op %d: Cancel(seq %d) = %v, model says %v", op, pick.seq, gotOK, wantOK)
			}
		default: // run up to a horizon
			horizon := s.Now() + Time(rng.Intn(15))
			before := len(got)
			err := s.RunUntil(horizon)
			wantOrder, stopped := m.runUntil(horizon)
			if stopped != errors.Is(err, ErrStopped) {
				t.Fatalf("op %d: RunUntil(%v) err = %v, model stopped = %v", op, horizon, err, stopped)
			}
			if !stopped && err != nil {
				t.Fatalf("op %d: RunUntil(%v): %v", op, horizon, err)
			}
			fired := got[before:]
			if len(fired) != len(wantOrder) {
				t.Fatalf("op %d: fired %v, model fired %v", op, fired, wantOrder)
			}
			for i := range fired {
				if fired[i] != wantOrder[i] {
					t.Fatalf("op %d: fired %v, model fired %v", op, fired, wantOrder)
				}
			}
		}
		check(fmt.Sprintf("op %d", op))
	}

	// Drain what's left with Run and compare the tail.
	before := len(got)
	err := s.Run()
	wantOrder, stopped := m.run()
	if stopped != errors.Is(err, ErrStopped) {
		t.Fatalf("drain: Run err = %v, model stopped = %v", err, stopped)
	}
	fired := got[before:]
	if len(fired) != len(wantOrder) {
		t.Fatalf("drain: fired %v, model fired %v", fired, wantOrder)
	}
	for i := range fired {
		if fired[i] != wantOrder[i] {
			t.Fatalf("drain: fired %v, model fired %v", fired, wantOrder)
		}
	}
	check("drain")
}
