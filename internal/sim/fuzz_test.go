package sim

import "testing"

// FuzzSchedulerOps decodes a byte stream into scheduler operations and
// checks the structural invariants the arena + free-list + generation
// design must uphold under any interleaving:
//
//   - no panics, whatever the op sequence;
//   - the virtual clock never moves backwards;
//   - every scheduled event either fires exactly once or is successfully
//     canceled exactly once — never both, never neither — i.e. a stale
//     Handle can never cancel (or double-cancel) a recycled slot;
//   - Pending always equals scheduled − fired − canceled.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{0, 4, 1, 8, 3, 2, 2, 0, 2, 0, 0, 3, 7})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 2, 0, 3, 255})
	f.Add([]byte{1, 9, 1, 9, 1, 9, 3, 9, 2, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewScheduler()

		var (
			handles   []Handle
			fireCount []int // per scheduled event, how many times it fired
			canceled  []bool
			scheduled int
			fired     int
			cancels   int
		)
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		checkInvariants := func(ctx string) {
			if s.Pending() != scheduled-fired-cancels {
				t.Fatalf("%s: Pending = %d, want %d (scheduled %d, fired %d, canceled %d)",
					ctx, s.Pending(), scheduled-fired-cancels, scheduled, fired, cancels)
			}
			if s.Fired() != uint64(fired) {
				t.Fatalf("%s: Fired = %d, callbacks ran %d times", ctx, s.Fired(), fired)
			}
		}

		schedule := func(delay Time) {
			idx := len(fireCount)
			fireCount = append(fireCount, 0)
			canceled = append(canceled, false)
			h, err := s.AfterArg(delay, func(any) {
				fireCount[idx]++
				fired++
			}, nil)
			if err != nil {
				t.Fatalf("After(%v): %v", delay, err)
			}
			handles = append(handles, h)
			scheduled++
		}

		for {
			op, ok := next()
			if !ok {
				break
			}
			arg, _ := next()
			prev := s.Now()
			switch op % 4 {
			case 0: // relative schedule
				schedule(Time(arg) / 16)
			case 1: // equal-time burst at an absolute time
				at := s.Now() + Time(arg%8)
				for k := 0; k < 3; k++ {
					idx := len(fireCount)
					fireCount = append(fireCount, 0)
					canceled = append(canceled, false)
					h, err := s.AtArg(at, func(any) {
						fireCount[idx]++
						fired++
					}, nil)
					if err != nil {
						t.Fatalf("At(%v): %v", at, err)
					}
					handles = append(handles, h)
					scheduled++
				}
			case 2: // cancel an arbitrary (possibly stale) handle
				if len(handles) == 0 {
					continue
				}
				i := int(arg) % len(handles)
				ok := handles[i].Cancel()
				if ok {
					if canceled[i] {
						t.Fatalf("handle %d canceled twice", i)
					}
					if fireCount[i] > 0 {
						t.Fatalf("handle %d canceled after firing", i)
					}
					canceled[i] = true
					cancels++
				}
			case 3: // run up to a horizon
				if err := s.RunUntil(s.Now() + Time(arg)/8); err != nil {
					t.Fatalf("RunUntil: %v", err)
				}
			}
			if s.Now() < prev {
				t.Fatalf("clock moved backwards: %v -> %v", prev, s.Now())
			}
			checkInvariants("op")
		}

		// Drain and settle the ledger: every event fired xor was canceled.
		if err := s.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		checkInvariants("drain")
		if s.Pending() != 0 {
			t.Fatalf("drain left %d pending", s.Pending())
		}
		for i, c := range fireCount {
			switch {
			case c > 1:
				t.Fatalf("event %d fired %d times", i, c)
			case c == 1 && canceled[i]:
				t.Fatalf("event %d both fired and canceled", i)
			case c == 0 && !canceled[i]:
				t.Fatalf("event %d neither fired nor canceled", i)
			}
		}
		// Stale handles must all be inert now.
		for i := range handles {
			if handles[i].Cancel() {
				t.Fatalf("stale handle %d canceled a recycled slot", i)
			}
		}
	})
}
