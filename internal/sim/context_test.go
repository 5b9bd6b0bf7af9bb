package sim

import (
	"context"
	"errors"
	"testing"
)

// TestRunUntilContextEdgeCases pins the boundary semantics of
// RunUntilContext: the horizon is inclusive, a horizon equal to the
// current clock is legal, cancellation is checked between events (so a
// cancel raced by the final event still fires that event, then reports
// the cancellation), and a precanceled context fires nothing.
func TestRunUntilContextEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{
			name: "horizon equal to now",
			run: func(t *testing.T) {
				s := NewScheduler()
				if err := s.RunUntil(5); err != nil {
					t.Fatal(err)
				}
				var fired, later bool
				mustAt(t, s, 5, func() { fired = true })
				mustAt(t, s, 6, func() { later = true })
				if err := s.RunUntilContext(context.Background(), 5); err != nil {
					t.Fatal(err)
				}
				if !fired {
					t.Error("event at the now-horizon did not fire")
				}
				if later {
					t.Error("event past the horizon fired")
				}
				if s.Now() != 5 {
					t.Errorf("Now = %v, want 5", s.Now())
				}
				if s.Pending() != 1 {
					t.Errorf("Pending = %d, want 1", s.Pending())
				}
			},
		},
		{
			name: "event exactly at horizon",
			run: func(t *testing.T) {
				s := NewScheduler()
				var order []int
				mustAt(t, s, 3, func() { order = append(order, 3) })
				mustAt(t, s, 10, func() { order = append(order, 10) })
				mustAt(t, s, 10.000001, func() { order = append(order, 11) })
				if err := s.RunUntilContext(context.Background(), 10); err != nil {
					t.Fatal(err)
				}
				if len(order) != 2 || order[0] != 3 || order[1] != 10 {
					t.Errorf("fired %v, want [3 10]", order)
				}
				if s.Now() != 10 {
					t.Errorf("Now = %v, want 10", s.Now())
				}
			},
		},
		{
			name: "cancellation racing the final event",
			run: func(t *testing.T) {
				s := NewScheduler()
				ctx, cancel := context.WithCancel(context.Background())
				var fired []int
				// The final event cancels the context as it fires: the
				// cancellation must not clip the event itself, but must win
				// over advancing the clock to the horizon.
				mustAt(t, s, 1, func() { fired = append(fired, 1) })
				mustAt(t, s, 2, func() {
					fired = append(fired, 2)
					cancel()
				})
				err := s.RunUntilContext(ctx, 50)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if len(fired) != 2 {
					t.Errorf("fired %v, want [1 2]", fired)
				}
				if s.Now() != 2 {
					t.Errorf("Now = %v, want 2 (clock must stop at the last event, not the horizon)", s.Now())
				}
			},
		},
		{
			name: "precanceled context with non-empty queue",
			run: func(t *testing.T) {
				s := NewScheduler()
				var fired bool
				mustAt(t, s, 1, func() { fired = true })
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				err := s.RunUntilContext(ctx, 10)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if fired {
					t.Error("event fired under a precanceled context")
				}
				if s.Now() != 0 {
					t.Errorf("Now = %v, want 0", s.Now())
				}
				if s.Pending() != 1 {
					t.Errorf("Pending = %d, want 1", s.Pending())
				}
			},
		},
		{
			name: "horizon in the past",
			run: func(t *testing.T) {
				s := NewScheduler()
				if err := s.RunUntil(5); err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntilContext(context.Background(), 4); err == nil {
					t.Fatal("expected error for horizon before now")
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

func mustAt(t *testing.T, s *Scheduler, at Time, fn func()) Handle {
	t.Helper()
	h, err := s.AtArg(at, func(any) { fn() }, nil)
	if err != nil {
		t.Fatalf("At(%v): %v", at, err)
	}
	return h
}

// BenchmarkSchedulerSteadyState pins the scheduler's zero-allocation
// contract: a saturated scheduler re-arming recurring events (and
// canceling a timer per fire, to churn the free list) must report
// 0 allocs/op once the arena has grown to steady-state depth. Each
// iteration runs a fixed batch of events so the measurement — and the
// benchgate comparison — is stable even at -benchtime 3x.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	const eventsPerOp = 10_000
	s := NewScheduler()
	var target uint64
	var step Func
	step = func(arg any) {
		// Arm-and-cancel a decoy timer: the canceled slot must come back
		// through the free list without allocating.
		if h, err := s.AfterArg(2, step, arg); err == nil {
			h.Cancel()
		}
		if s.Fired() < target {
			_, _ = s.AfterArg(1, step, arg)
		}
	}
	seed := func() {
		for i := 0; i < 4; i++ {
			if _, err := s.AtArg(s.Now()+Time(i), step, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm up past the arena/heap growth phase so the measured window
	// exercises only the recycled steady state.
	target = s.Fired() + 256
	seed()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}

	target = s.Fired() + uint64(b.N)*eventsPerOp
	seed()
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
