package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"flecc/internal/image"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

func echoHandler(req *wire.Message) *wire.Message {
	return &wire.Message{Type: wire.TAck, View: req.View}
}

func TestInprocCall(t *testing.T) {
	n := NewInproc()
	_, err := n.Attach("dm", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := n.Attach("cm1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := cm.Call("dm", &wire.Message{Type: wire.TPull, View: "cm1"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TAck || reply.View != "cm1" || reply.From != "dm" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestInprocSeqAndFromAssigned(t *testing.T) {
	n := NewInproc()
	var seen *wire.Message
	n.Attach("dm", func(req *wire.Message) *wire.Message {
		seen = &wire.Message{Seq: req.Seq, From: req.From}
		return nil
	})
	cm, _ := n.Attach("cm1", echoHandler)
	reply, err := cm.Call("dm", &wire.Message{Type: wire.TInit})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Seq == 0 || seen.From != "cm1" {
		t.Fatalf("request metadata: %+v", seen)
	}
	if reply.Seq != seen.Seq {
		t.Fatal("reply seq should echo request seq")
	}
}

func TestInprocNilReplyBecomesAck(t *testing.T) {
	n := NewInproc()
	n.Attach("dm", func(req *wire.Message) *wire.Message { return nil })
	cm, _ := n.Attach("cm1", echoHandler)
	reply, err := cm.Call("dm", &wire.Message{Type: wire.TRelease})
	if err != nil || reply.Type != wire.TAck {
		t.Fatalf("reply = %+v, err = %v", reply, err)
	}
}

func TestInprocUnknownNode(t *testing.T) {
	n := NewInproc()
	cm, _ := n.Attach("cm1", echoHandler)
	_, err := cm.Call("nobody", &wire.Message{Type: wire.TInit})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestInprocDuplicateName(t *testing.T) {
	n := NewInproc()
	n.Attach("x", echoHandler)
	if _, err := n.Attach("x", echoHandler); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("err = %v", err)
	}
}

func TestInprocAttachValidation(t *testing.T) {
	n := NewInproc()
	if _, err := n.Attach("", echoHandler); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := n.Attach("y", nil); err == nil {
		t.Fatal("nil handler should fail")
	}
}

func TestInprocClose(t *testing.T) {
	n := NewInproc()
	dm, _ := n.Attach("dm", echoHandler)
	cm, _ := n.Attach("cm1", echoHandler)
	dm.Close()
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TInit}); err == nil {
		t.Fatal("call to detached node should fail")
	}
	cm.Close()
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TInit}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	n.mu.RLock()
	left := len(n.nodes)
	n.mu.RUnlock()
	if left != 0 {
		t.Fatalf("%d nodes still attached", left)
	}
}

func TestInprocErrReplyBecomesError(t *testing.T) {
	n := NewInproc()
	n.Attach("dm", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TErr, Err: "nope"}
	})
	cm, _ := n.Attach("cm1", echoHandler)
	reply, err := cm.Call("dm", &wire.Message{Type: wire.TInit})
	if err == nil {
		t.Fatal("TErr should surface as error")
	}
	if reply == nil || reply.Type != wire.TErr {
		t.Fatal("reply should still carry the TErr message")
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err type = %T", err)
	}
}

func TestInprocObserverSeesBothDirections(t *testing.T) {
	n := NewInproc()
	var mu sync.Mutex
	var log []string
	n.AddObserver(ObserverFunc(func(from, to string, m *wire.Message) {
		mu.Lock()
		log = append(log, from+"->"+to+":"+m.Type.String())
		mu.Unlock()
	}))
	n.Attach("dm", echoHandler)
	cm, _ := n.Attach("cm1", echoHandler)
	cm.Call("dm", &wire.Message{Type: wire.TPull})
	if len(log) != 2 || log[0] != "cm1->dm:pull" || log[1] != "dm->cm1:ack" {
		t.Fatalf("observer log = %v", log)
	}
}

func TestInprocNestedCall(t *testing.T) {
	// DM's handler calls back into another CM while serving — the pattern
	// used by invalidations. Must not deadlock.
	n := NewInproc()
	var dmEp Endpoint
	n.Attach("cm2", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TImage}
	})
	dmEp, _ = n.Attach("dm", nil)
	_ = dmEp
	// Re-attach dm with a handler that performs a nested call.
	n.Detach("dm")
	dmEp2, _ := n.Attach("dm", func(req *wire.Message) *wire.Message {
		return nil
	})
	_ = dmEp2
	n.Detach("dm")
	var dm Endpoint
	dm, err := n.Attach("dm", func(req *wire.Message) *wire.Message {
		reply, err := dm.Call("cm2", &wire.Message{Type: wire.TInvalidate, View: "cm2"})
		if err != nil || reply.Type != wire.TImage {
			return &wire.Message{Type: wire.TErr, Err: "nested call failed"}
		}
		return &wire.Message{Type: wire.TAck}
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := n.Attach("cm1", echoHandler)
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatal(err)
	}
}

func TestInprocFaultInjection(t *testing.T) {
	n := NewInproc()
	n.Attach("dm", echoHandler)
	cm, _ := n.Attach("cm1", echoHandler)
	boom := errors.New("link down")
	n.SetFaultInjector(func(from, to string, m *wire.Message) error {
		if m.Type == wire.TPush {
			return boom
		}
		return nil
	})
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPush}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := cm.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
		t.Fatalf("pull should pass: %v", err)
	}
}

func TestInprocConcurrentCalls(t *testing.T) {
	n := NewInproc()
	var served atomic.Int64
	n.Attach("dm", func(req *wire.Message) *wire.Message {
		served.Add(1)
		return nil
	})
	const workers, calls = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		name := "cm" + string(rune('0'+w))
		ep, err := n.Attach(name, echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := ep.Call("dm", &wire.Message{Type: wire.TPull}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	if served.Load() != workers*calls {
		t.Fatalf("served %d, want %d", served.Load(), workers*calls)
	}
}

// TestInprocReceiverOwnsWhatItDecoded: Inproc carries every message as a
// frame and the receiver decodes its own copy, as on TCP. A handler that
// writes into its request's image leaves the caller's message whole, and
// a caller that writes into its reply's image leaves the handler's.
func TestInprocReceiverOwnsWhatItDecoded(t *testing.T) {
	n := NewInproc()
	img := func(ver uint64, v string) *image.Image {
		return image.Of(vclock.Version(ver), []image.Entry{{Key: "k", Value: []byte(v), Version: 1}})
	}
	served := &wire.Message{Type: wire.TImage, Img: img(2, "reply")}
	if _, err := n.Attach("dm", func(req *wire.Message) *wire.Message {
		req.Img.Entries[0].Value[0] = 'X'
		req.Img.Entries = req.Img.Entries[:0]
		return served
	}); err != nil {
		t.Fatal(err)
	}
	cm, _ := n.Attach("cm", echoHandler)
	req := &wire.Message{Type: wire.TPush, Img: img(1, "request")}
	reply, err := cm.Call("dm", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Img.Entries) != 1 || string(req.Img.Entries[0].Value) != "request" {
		t.Errorf("the handler's writes reached the caller's request: %v", req.Img.Entries)
	}
	reply.Img.Entries[0].Value[0] = 'Y'
	reply.Img.Entries = nil
	if len(served.Img.Entries) != 1 || string(served.Img.Entries[0].Value) != "reply" {
		t.Errorf("the caller's writes reached the handler's reply: %v", served.Img.Entries)
	}
}

func TestInprocBeforeDeliverHook(t *testing.T) {
	n := NewInproc()
	var hops atomic.Int64
	n.SetBeforeDeliver(func(from, to string, m *wire.Message, _ int) { hops.Add(1) })
	n.Attach("dm", echoHandler)
	cm, _ := n.Attach("cm1", echoHandler)
	cm.Call("dm", &wire.Message{Type: wire.TPull})
	if hops.Load() != 2 {
		t.Fatalf("hops = %d, want 2 (request + reply)", hops.Load())
	}
}

// BenchmarkInprocCall prices the codec every in-process call pays: a
// TPull and its one-entry TImage reply, each encoded into a frame and
// decoded through the receiving endpoint's tables.
func BenchmarkInprocCall(b *testing.B) {
	n := NewInproc()
	reply := &wire.Message{Type: wire.TImage, Version: 7, Img: image.Of(7, []image.Entry{
		{Key: "flight/100", Value: []byte("NYC|BOS|200|3"), Version: 7, Writer: "agent-1"},
	})}
	if _, err := n.Attach("dm", func(*wire.Message) *wire.Message { return reply }); err != nil {
		b.Fatal(err)
	}
	cm, _ := n.Attach("agent-1", echoHandler)
	req := &wire.Message{Type: wire.TPull, Since: 6, Version: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := cm.Call("dm", req); err != nil {
			b.Fatal(err)
		}
	}
}
