package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"flecc/internal/wire"
)

// appendObserver records "<id>:<type>:<from>-><to>" lines into a shared
// log, for ordering assertions.
type appendObserver struct {
	id  string
	mu  *sync.Mutex
	log *[]string
}

func (a appendObserver) OnMessage(from, to string, m *wire.Message) {
	a.mu.Lock()
	*a.log = append(*a.log, fmt.Sprintf("%s:%s:%s->%s", a.id, m.Type, from, to))
	a.mu.Unlock()
}

// TestObserversFanOutOrder: multiple observers on one Inproc network
// each see every message, in registration order, request before reply.
func TestObserversFanOutOrder(t *testing.T) {
	net := NewInproc()
	var mu sync.Mutex
	var log []string
	net.AddObserver(appendObserver{"a", &mu, &log})
	net.AddObserver(appendObserver{"b", &mu, &log})
	net.AddObserver(appendObserver{"c", &mu, &log})

	if _, err := net.Attach("dm", echoHandler); err != nil {
		t.Fatal(err)
	}
	cm, err := net.Attach("cm", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a:pull:cm->dm", "b:pull:cm->dm", "c:pull:cm->dm",
		"a:ack:dm->cm", "b:ack:dm->cm", "c:ack:dm->cm",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, log[i], w, log)
		}
	}
}

// TestObserversSetReplacesAndClears: Set replaces the whole fan-out with
// one observer, and Set(nil) clears it.
func TestObserversSetReplacesAndClears(t *testing.T) {
	net := NewInproc()
	var mu sync.Mutex
	var log []string
	net.AddObserver(appendObserver{"a", &mu, &log})
	net.AddObserver(appendObserver{"b", &mu, &log})
	net.obs.Set(appendObserver{"c", &mu, &log}) // replaces a and b

	if _, err := net.Attach("dm", echoHandler); err != nil {
		t.Fatal(err)
	}
	cm, err := net.Attach("cm", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0] != "c:pull:cm->dm" || log[1] != "c:ack:dm->cm" {
		t.Fatalf("log = %v, want only observer c", log)
	}

	net.obs.Set(nil)
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPush}); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("cleared fan-out still observed: %v", log)
	}
}

// TestObserversConcurrentMutation: Add/Set racing with traffic must not
// corrupt the fan-out (exercised under -race by CI).
func TestObserversConcurrentMutation(t *testing.T) {
	net := NewInproc()
	if _, err := net.Attach("dm", echoHandler); err != nil {
		t.Fatal(err)
	}
	cm, err := net.Attach("cm", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			net.AddObserver(ObserverFunc(func(string, string, *wire.Message) {}))
			net.obs.Set(ObserverFunc(func(string, string, *wire.Message) {}))
		}
	}()
	for i := 0; i < 500; i++ {
		if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTCPObserversSeeFrames: on a TCP link each side observes the
// frames crossing its own wire — the server sees the inbound request
// and its outbound reply; the client sees the outbound request and the
// inbound reply.
func TestTCPObserversSeeFrames(t *testing.T) {
	s := newTestServer(t, func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck}
	})
	var smu sync.Mutex
	var slog []string
	s.AddObserver(appendObserver{"s", &smu, &slog})

	c := dialTest(t, s, "cm1", echoHandler)
	var cmu sync.Mutex
	var clog []string
	c.AddObserver(appendObserver{"c", &cmu, &clog})

	if _, err := c.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		smu.Lock()
		sn := len(slog)
		smu.Unlock()
		if sn >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	cmu.Lock()
	defer cmu.Unlock()
	if len(clog) != 2 || clog[0] != "c:pull:cm1->dm" || clog[1] != "c:ack:dm->cm1" {
		t.Fatalf("client log = %v", clog)
	}
	smu.Lock()
	defer smu.Unlock()
	var sawReq, sawReply bool
	for _, l := range slog {
		if l == "s:pull:cm1->dm" {
			sawReq = true
		}
		if l == "s:ack:dm->cm1" {
			sawReply = true
		}
	}
	if !sawReq || !sawReply {
		t.Fatalf("server log = %v, want inbound pull and outbound ack", slog)
	}
}

// TestFaultyOneShotRetryDeterministic: a CallRetry through a one-shot
// edge fault succeeds with exactly one retry (the handler runs once),
// and two identically seeded runs inject identical fault counts — the
// acceptance shape for seeded-determinism with retry jitter enabled.
func TestFaultyOneShotRetryDeterministic(t *testing.T) {
	run := func(seed int64) (handlerCalls int, injected int64, slept []time.Duration) {
		f := NewFaulty(NewInproc(), seed)
		if _, err := f.Attach("dm", func(req *wire.Message) *wire.Message {
			handlerCalls++
			return &wire.Message{Type: wire.TAck}
		}); err != nil {
			t.Fatal(err)
		}
		cm, err := f.Attach("cm", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		// Background drops plus the armed one-shot, so the injected count
		// reflects the seeded stream, not just the single armed fault.
		f.SetDropRate(0.25)
		f.DisconnectNext("cm", "dm", 1)
		pol := RetryPolicy{
			Attempts: 10,
			Base:     time.Microsecond,
			Jitter:   0.2,
			Rand:     NewRand(seed),
			Sleep:    func(d time.Duration) { slept = append(slept, d) },
		}
		for i := 0; i < 50; i++ {
			if _, err := CallRetry(cm, "dm", &wire.Message{Type: wire.TPull}, pol); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		return handlerCalls, f.Injected(), slept
	}

	// One-shot in isolation: exactly one retry, handler runs once.
	{
		f := NewFaulty(NewInproc(), 1)
		handlerCalls := 0
		if _, err := f.Attach("dm", func(req *wire.Message) *wire.Message {
			handlerCalls++
			return &wire.Message{Type: wire.TAck}
		}); err != nil {
			t.Fatal(err)
		}
		cm, err := f.Attach("cm", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		f.DisconnectNext("cm", "dm", 1)
		attempts := 0
		pol := RetryPolicy{
			Attempts: 5, Base: time.Microsecond, Jitter: 0.2, Rand: NewRand(1),
			Sleep: func(time.Duration) { attempts++ },
		}
		if _, err := CallRetry(cm, "dm", &wire.Message{Type: wire.TPull}, pol); err != nil {
			t.Fatal(err)
		}
		if attempts != 1 {
			t.Fatalf("paused %d times, want exactly one retry", attempts)
		}
		if handlerCalls != 1 {
			t.Fatalf("handler ran %d times, want 1 (first attempt was dropped)", handlerCalls)
		}
		if f.Injected() != 1 {
			t.Fatalf("Injected() = %d, want 1", f.Injected())
		}
	}

	c1, i1, s1 := run(99)
	c2, i2, s2 := run(99)
	if i1 != i2 {
		t.Fatalf("injected counts diverged across identically seeded runs: %d vs %d", i1, i2)
	}
	if c1 != c2 {
		t.Fatalf("handler call counts diverged: %d vs %d", c1, c2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("retry pause counts diverged: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("pause %d diverged: %v vs %v", i, s1[i], s2[i])
		}
	}
	if i1 == 0 {
		t.Fatal("run injected no faults; drop rate not exercised")
	}
}
