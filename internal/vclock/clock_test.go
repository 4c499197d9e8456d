package vclock

import (
	"testing"
	"time"
)

// drain fires every pending event, including the ones events schedule,
// and returns how many fired.
func drain(s *Sim) int {
	fired := 0
	for s.Step() {
		fired++
	}
	return fired
}

func TestSimStartsAtZero(t *testing.T) {
	s := NewSim()
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
}

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	n := drain(s)
	if n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSimSameTimeFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	drain(s)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSimStepAdvancesClock(t *testing.T) {
	s := NewSim()
	s.At(100, func() {})
	if !s.Step() {
		t.Fatal("Step should fire")
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %v, want 100", s.Now())
	}
	if s.Step() {
		t.Fatal("no more events")
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	fired := map[Time]bool{}
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired[at] = true })
	}
	n := s.RunUntil(25)
	if n != 2 || !fired[10] || !fired[20] || fired[30] {
		t.Fatalf("RunUntil(25): n=%d fired=%v", n, fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	// An event exactly at the boundary fires.
	n = s.RunUntil(30)
	if n != 1 || !fired[30] {
		t.Fatalf("boundary event: n=%d fired=%v", n, fired)
	}
}

func TestSimCancel(t *testing.T) {
	s := NewSim()
	fired := false
	cancel := s.At(10, func() { fired = true })
	cancel()
	cancel() // double-cancel is a no-op
	drain(s)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSimAfter(t *testing.T) {
	s := NewSim()
	s.RunUntil(100)
	var at Time
	s.After(50, func() { at = s.Now() })
	drain(s)
	if at != 150 {
		t.Fatalf("After(50) fired at %v, want 150", at)
	}
}

func TestSimPastSchedulingClamped(t *testing.T) {
	s := NewSim()
	s.RunUntil(100)
	var at Time
	s.At(10, func() { at = s.Now() })
	drain(s)
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", at)
	}
}

func TestSimEventsScheduleEvents(t *testing.T) {
	s := NewSim()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 5 {
			s.After(10, recur)
		}
	}
	s.After(10, recur)
	drain(s)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if s.Now() != 50 {
		t.Fatalf("Now = %v, want 50", s.Now())
	}
}

func TestSimAdvance(t *testing.T) {
	s := NewSim()
	s.Advance(42)
	if s.Now() != 42 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestRealClockMonotonic(t *testing.T) {
	r := NewReal()
	a := r.Now()
	time.Sleep(2 * time.Millisecond)
	b := r.Now()
	if b < a {
		t.Fatalf("real clock went backwards: %v -> %v", a, b)
	}
}

func TestTimeString(t *testing.T) {
	if Time(1500).String() != "1500ms" {
		t.Fatalf("got %q", Time(1500).String())
	}
}

func TestWaitUntil(t *testing.T) {
	s := NewSim()
	s.Advance(5)
	WaitUntil(s, 3)
	if s.Now() != 5 {
		t.Fatalf("a wait for the past moved the simulated clock to %v", s.Now())
	}
	WaitUntil(s, 40)
	if s.Now() != 40 {
		t.Fatalf("a wait left the simulated clock at %v, want 40ms", s.Now())
	}
	r := NewReal()
	end := r.Now() + 3
	WaitUntil(r, end)
	if now := r.Now(); now < end {
		t.Fatalf("the wall-clock wait returned at %v, before %v", now, end)
	}
}
