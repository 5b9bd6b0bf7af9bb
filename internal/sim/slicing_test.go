package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file checks that RunUntil is resumable without side effects: a
// scheduler driven to each horizon through a chain of short RunUntilContext
// windows must be indistinguishable from one driven there in a single
// RunUntil call. Two schedulers run an identical deterministic script —
// events that schedule children at short delays (some landing exactly on a
// window boundary), cancel earlier events, and call Stop mid-run — and must
// agree on firing order, cancel outcomes, Pending, Fired, and Now at every
// point where the unsliced run returns.

// scriptWorld owns one scheduler's side of the mirrored script. An event's
// behavior is a pure function of (seed, id), so as long as both schedulers
// fire the same ids in the same order they perform identical operations;
// any divergence shows up in the recorded order stream.
type scriptWorld struct {
	t    *testing.T
	s    *Scheduler
	seed int64
	// order records fired event ids, and -(id+1) for each successful
	// cancel, so cancel outcomes are compared along with fire order.
	order   []int32
	handles []Handle
	depth   []int
}

func (w *scriptWorld) newEvent(depth int) (int, func()) {
	id := len(w.handles)
	w.handles = append(w.handles, Handle{})
	w.depth = append(w.depth, depth)
	return id, func() { w.fire(id) }
}

func (w *scriptWorld) schedule(at Time, depth int) {
	id, fn := w.newEvent(depth)
	h, err := w.s.At(at, fn)
	if err != nil {
		w.t.Fatalf("At(%v): %v", at, err)
	}
	w.handles[id] = h
}

func (w *scriptWorld) fire(id int) {
	w.order = append(w.order, int32(id))
	r := rand.New(rand.NewSource(w.seed<<20 ^ int64(id)*2654435761))
	if w.depth[id] < 3 {
		for c := r.Intn(3); c > 0; c-- {
			// Quarter-unit delays (including zero) put children at the
			// same instant and on the boundaries of the short windows.
			delay := Time(r.Intn(8)) / 4
			cid, fn := w.newEvent(w.depth[id] + 1)
			h, err := w.s.After(delay, fn)
			if err != nil {
				w.t.Fatalf("After(%v): %v", delay, err)
			}
			w.handles[cid] = h
		}
	}
	if r.Intn(3) == 0 {
		target := r.Intn(id + 1)
		if w.handles[target].Cancel() {
			w.order = append(w.order, -int32(target)-1)
		}
	}
	if r.Intn(16) == 0 {
		w.s.Stop()
	}
}

// runWindowed drives s to horizon through consecutive RunUntilContext
// windows of width L, under a cancelable (never canceled) context so the
// context-checking loop is the one exercised. It returns at the first
// error, or once the horizon is reached; an empty queue ends the slicing.
func runWindowed(ctx context.Context, s *Scheduler, horizon, L Time) error {
	for {
		end := s.Now() + L
		if end > horizon || s.Pending() == 0 {
			end = horizon
		}
		if err := s.RunUntilContext(ctx, end); err != nil {
			return err
		}
		if end == horizon {
			return nil
		}
	}
}

// TestWindowedMatchesSerial runs the mirrored script for each seed and
// window width L; L = 1e9 covers a single window spanning every horizon.
func TestWindowedMatchesSerial(t *testing.T) {
	widths := []Time{0.25, 1, 10, 1e9}
	for seed := int64(0); seed < 25; seed++ {
		for _, L := range widths {
			t.Run(fmt.Sprintf("seed=%d/L=%v", seed, L), func(t *testing.T) {
				testWindowedAgainstSerial(t, seed, L)
			})
		}
	}
}

func testWindowedAgainstSerial(t *testing.T, seed int64, L Time) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serial := &scriptWorld{t: t, s: NewScheduler(), seed: seed}
	windowed := &scriptWorld{t: t, s: NewScheduler(), seed: seed}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		at := Time(r.Intn(40)) / 2
		serial.schedule(at, 0)
		windowed.schedule(at, 0)
	}

	check := func(where string) {
		t.Helper()
		if serial.s.Now() != windowed.s.Now() {
			t.Fatalf("%s: windowed Now = %v, serial %v", where, windowed.s.Now(), serial.s.Now())
		}
		if serial.s.Pending() != windowed.s.Pending() {
			t.Fatalf("%s: windowed Pending = %d, serial %d", where, windowed.s.Pending(), serial.s.Pending())
		}
		if serial.s.Fired() != windowed.s.Fired() {
			t.Fatalf("%s: windowed Fired = %d, serial %d", where, windowed.s.Fired(), serial.s.Fired())
		}
	}

	for _, horizon := range []Time{5, 12.5, 40, 1e6} {
		for round := 0; ; round++ {
			errS := serial.s.RunUntil(horizon)
			errW := runWindowed(ctx, windowed.s, horizon, L)
			if errS != nil && !errors.Is(errS, ErrStopped) {
				t.Fatalf("horizon %v round %d: serial err = %v", horizon, round, errS)
			}
			if errors.Is(errS, ErrStopped) != errors.Is(errW, ErrStopped) || (errW != nil && !errors.Is(errW, ErrStopped)) {
				t.Fatalf("horizon %v round %d: windowed err = %v, serial err = %v", horizon, round, errW, errS)
			}
			check(fmt.Sprintf("horizon %v round %d", horizon, round))
			if errS == nil {
				break
			}
		}
	}
	if serial.s.Pending() != 0 {
		t.Fatalf("script left %d events pending past the last horizon", serial.s.Pending())
	}

	if len(serial.order) != len(windowed.order) {
		t.Fatalf("windowed ran %d ops, serial %d", len(windowed.order), len(serial.order))
	}
	for i := range serial.order {
		if serial.order[i] != windowed.order[i] {
			t.Fatalf("op %d: windowed %d, serial %d\nwindowed: %v\nserial:   %v",
				i, windowed.order[i], serial.order[i], windowed.order, serial.order)
		}
	}
}
