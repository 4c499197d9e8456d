package cache_test

import (
	"fmt"
	"sync"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// TestConcurrentPullsSendOwnRequests: a pull's TPull comes from the wire
// pool and goes back once its call has returned. Pulls that run at once on
// one manager must each send the request they built: a Since the view held
// (a version some reply brought) and, when set, a Version naming a push ack
// newer than it. A request shared between pulls, or recycled while its call
// was still out, shows as a data race under -race or as a request nobody
// built. The scripted directory hands out a fresh version on every pull
// reply and push ack.
func TestConcurrentPullsSendOwnRequests(t *testing.T) {
	net := transport.NewInproc()
	var (
		mu     sync.Mutex
		next   vclock.Version
		served = map[vclock.Version]bool{0: true}
		acked  = map[vclock.Version]bool{}
		bad    []string
		pulls  int
		named  int // pulls that named a push ack
	)
	dm := func(req *wire.Message) *wire.Message {
		mu.Lock()
		defer mu.Unlock()
		switch req.Type {
		case wire.TPull:
			pulls++
			if req.Version != 0 {
				named++
			}
			if req.From != "v" || !served[req.Since] ||
				req.Version != 0 && (!acked[req.Version] || req.Version <= req.Since) {
				bad = append(bad, fmt.Sprintf("from %q since %d version %d", req.From, req.Since, req.Version))
			}
			fallthrough
		case wire.TInit:
			next++
			served[next] = true
			r := wire.NewMessage()
			r.Type, r.Version = wire.TImage, next
			return r
		case wire.TPush:
			next++
			acked[next] = true
			r := wire.NewMessage()
			r.Type, r.Version = wire.TAck, next
			return r
		}
		return nil
	}
	ep, err := net.Attach("dm", dm)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	view := newKV(nil)
	cm, err := cache.New(cache.Config{
		Name: "v", Directory: "dm", Net: net, View: view,
		Props: property.MustSet("P={x}"), Clock: vclock.NewSim(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.InitImage(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				if g == 0 {
					// The writer: each push's ack sets the next pulls'
					// Version until a pull reply overtakes it.
					if err := cm.StartUse(); err != nil {
						t.Error(err)
						return
					}
					view.Set("k", fmt.Sprint(i))
					cm.EndUse()
					if err := cm.PushImage(); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cm.PullImage(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if pulls != 4*50 || named == 0 {
		t.Errorf("directory saw %d pulls, %d naming a push ack; want %d, some naming one", pulls, named, 4*50)
	}
	for _, b := range bad {
		t.Errorf("a pull sent a request the view never built: %s", b)
	}
}
