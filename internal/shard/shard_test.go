package shard_test

import (
	"sync"
	"testing"

	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/shard"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// kv is the toy component/view used across the shard tests: a string map
// guarded by a mutex, with the extract/merge codec over it (the same
// shape the cache package tests use).
type kv struct {
	mu   sync.Mutex
	data map[string]string
}

func newKV(init map[string]string) *kv {
	d := map[string]string{}
	for k, v := range init {
		d[k] = v
	}
	return &kv{data: d}
}

func (v *kv) Set(k, val string) {
	v.mu.Lock()
	v.data[k] = val
	v.mu.Unlock()
}

func (v *kv) Get(k string) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.data[k]
}

func (v *kv) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.data)
}

func (v *kv) Extract(props property.Set) (*image.Image, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	img := image.New()
	for k, val := range v.data {
		img.Put(image.Entry{Key: k, Value: []byte(val)})
	}
	return img, nil
}

func (v *kv) Merge(img *image.Image, props property.Set) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range img.Entries {
		k := e.Key
		if e.Deleted {
			delete(v.data, k)
			continue
		}
		v.data[k] = string(e.Value)
	}
	return nil
}

// rig bundles a sharded deployment: one shared primary kv behind every
// shard directory manager (the tests move views between shards, so the
// shards must extract from the same primary), the service, and helpers to
// spawn views.
type rig struct {
	t     *testing.T
	clock *vclock.Sim
	net   *transport.Inproc
	prim  *kv
	svc   *shard.Service
}

func newRig(t *testing.T, shards int, opts directory.Options) *rig {
	t.Helper()
	r := &rig{
		t:     t,
		clock: vclock.NewSim(),
		net:   transport.NewInproc(),
		prim:  newKV(map[string]string{"seed": "s0"}),
	}
	svc, err := shard.NewService(shard.ServiceConfig{
		Name:    "dm",
		Net:     r.net,
		Clock:   r.clock,
		Shards:  shards,
		Primary: func(int) image.Codec { return r.prim },
		Opts:    opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.svc = svc
	t.Cleanup(func() { svc.Close() })
	return r
}

func (r *rig) view(name, props string, mode wire.Mode, view *kv) *cache.Manager {
	r.t.Helper()
	cm, err := cache.New(cache.Config{
		Name:      name,
		Directory: "dm",
		Net:       r.net,
		View:      view,
		Props:     property.MustSet(props),
		Mode:      mode,
		Clock:     r.clock,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return cm
}

// owner returns the shard a view is assigned to, failing when unassigned.
func (r *rig) owner(view string) string {
	r.t.Helper()
	s, ok := r.svc.Router().Assignment()[view]
	if !ok {
		r.t.Fatalf("view %s has no shard assignment", view)
	}
	return s
}
