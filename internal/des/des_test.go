package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var got []Time
	times := []Time{5, 3, 9, 3, 1, 7, 0}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: got %v want %v", i, got, want)
		}
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(42, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	s.At(10*Millisecond, func() {
		if s.Now() != 10*Millisecond {
			t.Errorf("Now = %v, want 10ms", s.Now())
		}
		s.After(5*Millisecond, func() {
			if s.Now() != 15*Millisecond {
				t.Errorf("Now = %v, want 15ms", s.Now())
			}
		})
	})
	end := s.Run()
	if end != 15*Millisecond {
		t.Fatalf("end = %v, want 15ms", end)
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("processed %d events in all, want the 7 left queued by Stop too", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 10, 20} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1,2,3", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %v, want all 5", fired)
	}
}

func TestHorizon(t *testing.T) {
	s := New(1)
	s.SetHorizon(10)
	var fired []Time
	reschedule := func() {} // forward decl
	at := Time(0)
	reschedule = func() {
		fired = append(fired, s.Now())
		at += 4
		s.At(at, reschedule)
	}
	s.At(0, reschedule)
	s.Run()
	// Events at 0,4,8 fire; 12 exceeds horizon.
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events before horizon", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		var trace []int
		var step func()
		n := 0
		step = func() {
			trace = append(trace, s.Rand().Intn(1000))
			n++
			if n < 50 {
				s.After(Duration(1+s.Rand().Intn(100)), step)
			}
		}
		s.At(0, step)
		s.Run()
		return trace
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		0:                     "0s",
		Second:                "1s",
		250 * Millisecond:     "250ms",
		3 * Microsecond:       "3µs",
		7:                     "7ns",
		90 * Second:           "90s",
		1500 * Millisecond:    "1500ms",
		2*Second + Nanosecond: "2000000001ns",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
}

// Property: for any set of (time, id) pairs, events fire sorted by time
// with stable ordering among equal times.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(3)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, r := range raw {
			at := Time(r % 64) // force many collisions
			i := i
			s.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1].at > fired[i].at {
				return false
			}
			if fired[i-1].at == fired[i].at && fired[i-1].seq > fired[i].seq {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(Duration(1+s.Rand().Intn(16)), tick)
		}
	}
	b.ReportAllocs()
	s.At(0, tick)
	s.Run()
}
