package cache_test

import (
	"fmt"
	"strings"
	"testing"

	"flecc"
	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// A pull into a clean view moves the watermark past its own merge; a pull
// into a view with pending changes reads the incoming keys back and keeps
// the watermark. These tests hold both to what an untracked codec does:
// every local write is pushed once, with the base version it superseded.

// cleanPullRig is a real directory over a map primary and two weak map
// views on one network. v1 never finds the primary good enough, so its
// pulls gather from v0.
type cleanPullRig struct {
	net    *transport.Inproc
	prim   *flecc.MapCodec
	stores [2]*flecc.MapCodec
	cms    [2]*cache.Manager
}

func newCleanPullRig(t *testing.T, codec func(i int, s *flecc.MapCodec) image.Codec) *cleanPullRig {
	t.Helper()
	r := &cleanPullRig{net: transport.NewInproc(), prim: flecc.NewMapCodec()}
	r.prim.SetString("a", "0")
	r.prim.SetString("b", "0")
	dm, err := directory.New("dm", r.prim, vclock.NewSim(), r.net, directory.Options{FanOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	for i := range r.cms {
		r.stores[i] = flecc.NewMapCodec()
		view := codec(i, r.stores[i])
		cfg := cache.Config{
			Name: fmt.Sprintf("v%d", i), Directory: "dm", Net: r.net, View: view,
			Props: property.MustSet("P={x}"), Clock: vclock.NewSim(),
		}
		if i == 1 {
			cfg.ValidityTrigger = "false"
		}
		if r.cms[i], err = cache.New(cfg); err != nil {
			t.Fatal(err)
		}
		if err := r.cms[i].InitImage(); err != nil {
			t.Fatal(err)
		}
		// A first, empty round trip puts the watermark past zero.
		if err := r.cms[i].PushImage(); err != nil {
			t.Fatal(err)
		}
		if _, tracked := view.(image.ChangeExtractor); tracked && r.cms[i].SyncedRev() == 0 {
			t.Fatalf("v%d: no watermark after a round trip", i)
		}
	}
	return r
}

func trackedMap(_ int, s *flecc.MapCodec) image.Codec { return s }

// write changes one key of view i inside a use window.
func (r *cleanPullRig) write(t *testing.T, i int, key, val string) {
	t.Helper()
	if err := r.cms[i].StartUse(); err != nil {
		t.Fatal(err)
	}
	r.stores[i].SetString(key, val)
	r.cms[i].EndUse()
}

// pushes records the entries of every push from view name as
// "key=value@base-version".
func (r *cleanPullRig) pushes(name string) *[]string {
	var out []string
	r.net.AddObserver(transport.ObserverFunc(func(from, _ string, m *wire.Message) {
		if m.Type != wire.TPush || from != name || m.Img == nil {
			return
		}
		for _, e := range m.Img.Entries {
			out = append(out, fmt.Sprintf("%s=%s@%d", e.Key, e.Value, e.Version))
		}
	}))
	return &out
}

// A pending local write survives a pull that carries its key, beside
// a key the pull merges, and the next push carries it with the base
// version it was written over.
func TestPullKeepsPendingWrite(t *testing.T) {
	r := newCleanPullRig(t, trackedMap)
	r.write(t, 0, "a", "local")
	before, _ := r.cms[0].Base().Get("a")
	r.write(t, 1, "a", "remote")
	r.write(t, 1, "b", "remote")
	if err := r.cms[1].PushImage(); err != nil {
		t.Fatal(err)
	}
	pushed := r.pushes("v0")
	if err := r.cms[0].PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.stores[0].GetString("a"); got != "local" {
		t.Fatalf("the pull overwrote the pending write: a = %q", got)
	}
	if got := r.stores[0].GetString("b"); got != "remote" {
		t.Fatalf("the pull did not merge b: b = %q", got)
	}
	if err := r.cms[0].PushImage(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("a=local@%d", before.Version)
	if strings.Join(*pushed, ",") != want {
		t.Fatalf("push after the pull carried %v, want [%s]", *pushed, want)
	}
}

// After a pull into a clean view, a write to a key that pull merged is
// pushed: the watermark moved past the merge, not past the write.
func TestWriteAfterCleanPullIsPushed(t *testing.T) {
	r := newCleanPullRig(t, trackedMap)
	r.write(t, 1, "b", "remote")
	if err := r.cms[1].PushImage(); err != nil {
		t.Fatal(err)
	}
	rev := r.cms[0].SyncedRev()
	if err := r.cms[0].PullImage(); err != nil {
		t.Fatal(err)
	}
	if got := r.stores[0].GetString("b"); got != "remote" {
		t.Fatalf("the pull did not merge b: b = %q", got)
	}
	if r.cms[0].SyncedRev() <= rev {
		t.Fatalf("a pull into a clean view left the watermark at %d", r.cms[0].SyncedRev())
	}
	pushed := r.pushes("v0")
	r.write(t, 0, "b", "local")
	if err := r.cms[0].PushImage(); err != nil {
		t.Fatal(err)
	}
	if len(*pushed) != 1 || !strings.HasPrefix((*pushed)[0], "b=local@") {
		t.Fatalf("push after the write carried %v, want b=local", *pushed)
	}
	if got := r.prim.GetString("b"); got != "local" {
		t.Fatalf("primary b = %q, want local", got)
	}
}

// A pull that lands while the view's own push is on the wire. A fetch
// first surrenders a write made after the push was extracted, which
// leaves the view clean, so the pull takes the clean path and moves the
// watermark; the ack then folds the older pushed value back over base,
// and the late write must still be pushed. Played tracked and hidden:
// the same frames, and the last write reaches the primary.
func TestTrackedEquivalencePullDuringPush(t *testing.T) {
	run := func(tracked bool) (frames []string, primary string) {
		r := newCleanPullRig(t, func(_ int, s *flecc.MapCodec) image.Codec {
			if tracked {
				return s
			}
			return plainCodec{s}
		})
		r.write(t, 1, "b", "from-v1")
		if err := r.cms[1].PushImage(); err != nil {
			t.Fatal(err)
		}
		interleaved := false
		r.net.AddObserver(transport.ObserverFunc(func(from, to string, m *wire.Message) {
			frames = append(frames, fmt.Sprintf("%s>%s %x", from, to, wire.Encode(m)))
			if m.Type == wire.TPush && from == "v0" && !interleaved {
				interleaved = true
				r.stores[0].SetString("a", "late") // written while the push is on the wire
				if err := r.cms[1].PullImage(); err != nil {
					t.Error(err)
				}
				rev := r.cms[0].SyncedRev()
				if err := r.cms[0].PullImage(); err != nil {
					t.Error(err)
				}
				if r.stores[0].GetString("b") != "from-v1" {
					t.Error("v0's pull did not merge b")
				}
				if tracked && r.cms[0].SyncedRev() <= rev {
					t.Error("v0's pull did not take the clean path")
				}
			}
		}))
		r.write(t, 0, "a", "early")
		if err := r.cms[0].PushImage(); err != nil {
			t.Fatal(err)
		}
		if !interleaved {
			t.Fatal("the pull never interleaved with the push")
		}
		// The push carried "early" over the surrendered "late"; v0 still
		// holds "late" and must publish it again.
		if err := r.cms[0].PushImage(); err != nil {
			t.Fatal(err)
		}
		return frames, r.prim.GetString("a")
	}
	tf, tp := run(true)
	hf, hp := run(false)
	if tp != "late" || hp != "late" {
		t.Fatalf("primary a = %q tracked, %q hidden; want the last write %q", tp, hp, "late")
	}
	if strings.Join(tf, "\n") != strings.Join(hf, "\n") {
		t.Fatalf("frames differ\n tracked:\n%s\n hidden:\n%s", strings.Join(tf, "\n"), strings.Join(hf, "\n"))
	}
}

// windowWriter is a map view whose application writes key while a pull
// merges into it: a write of an open use window that lands between the
// pull's look at the view and its end.
type windowWriter struct {
	*flecc.MapCodec
	key, val string
	armed    bool
}

func (w *windowWriter) Merge(img *image.Image, props property.Set) error {
	err := w.MapCodec.Merge(img, props)
	if w.armed {
		w.armed = false
		w.SetString(w.key, w.val)
	}
	return err
}

// A pull during an open use window takes the old path: the
// application may write while it runs, so the watermark stays where it
// is and such a write is pushed.
func TestPullInOpenWindowKeepsWatermark(t *testing.T) {
	var ww *windowWriter
	r := newCleanPullRig(t, func(i int, s *flecc.MapCodec) image.Codec {
		if i == 0 {
			ww = &windowWriter{MapCodec: s, key: "a", val: "in-window"}
			return ww
		}
		return s
	})
	r.write(t, 1, "b", "remote")
	if err := r.cms[1].PushImage(); err != nil {
		t.Fatal(err)
	}
	rev := r.cms[0].SyncedRev()
	if err := r.cms[0].StartUse(); err != nil {
		t.Fatal(err)
	}
	ww.armed = true
	if err := r.cms[0].PullImage(); err != nil {
		t.Fatal(err)
	}
	if ww.armed {
		t.Fatal("the pull merged nothing")
	}
	if got := r.cms[0].SyncedRev(); got != rev {
		t.Errorf("a pull inside an open window moved the watermark %d -> %d", rev, got)
	}
	r.cms[0].EndUse()
	pushed := r.pushes("v0")
	if err := r.cms[0].PushImage(); err != nil {
		t.Fatal(err)
	}
	if len(*pushed) != 1 || !strings.HasPrefix((*pushed)[0], "a=in-window@") {
		t.Fatalf("push after the window carried %v, want a=in-window", *pushed)
	}
}
