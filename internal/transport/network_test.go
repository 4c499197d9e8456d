package transport

import (
	"net"
	"testing"
	"time"

	"flecc/internal/wire"
)

func TestServerAndDialNetworks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snet := NewServerNetwork(ln, 5*time.Second)
	dmEp, err := snet.Attach("dm", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TAck, Version: 7}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dmEp.Close()
	snet.mu.Lock()
	srv := snet.srv
	snet.mu.Unlock()
	if dmEp.Name() != "dm" || srv == nil {
		t.Fatal("server attachment")
	}
	// Second attach fails.
	if _, err := snet.Attach("dm2", echoHandler); err == nil {
		t.Fatal("second attach should fail")
	}

	dnet := NewDialNetwork(ln.Addr().String(), 5*time.Second)
	cmEp, err := dnet.Attach("cm1", func(req *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.TImage}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cmEp.Close()
	reply, err := cmEp.Call("dm", &wire.Message{Type: wire.TPull})
	if err != nil || reply.Version != 7 {
		t.Fatalf("reply = %+v, err = %v", reply, err)
	}
	// Server-initiated call back to the client works through the adapter.
	deadline := time.Now().Add(2 * time.Second)
	for {
		reply, err = dmEp.Call("cm1", &wire.Message{Type: wire.TInvalidate})
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil || reply.Type != wire.TImage {
		t.Fatalf("server->client call: %+v, %v", reply, err)
	}
}
