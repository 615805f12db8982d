package service

import (
	"container/list"
	"sync"

	"repro/internal/exp"
	"repro/internal/graph"
)

// graphEntry is one cached built graph. Runs on it are one-shot
// dist.RunAlgo calls, so the entry holds no per-vertex runtime state between
// requests.
type graphEntry struct {
	spec exp.GraphSpec

	once sync.Once // builds g, fp
	g    *graph.Graph
	fp   graph.Fingerprint
	err  error
}

func (e *graphEntry) build() {
	e.once.Do(func() {
		e.g, e.err = e.spec.Build()
		if e.err == nil {
			e.fp = e.g.Fingerprint()
		}
	})
}

// graphCache is a bounded LRU of built graphs keyed by the canonical spec
// string. Eviction just drops the entry: runs in flight keep their own
// reference to the graph.
type graphCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List
	entries map[string]*list.Element
}

func newGraphCache(capacity int) *graphCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &graphCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns the entry for spec, building the graph on first use. Build
// errors are sticky for as long as the entry stays cached — repeated
// requests for an invalid spec fail fast without rebuilding.
func (gc *graphCache) get(spec exp.GraphSpec) (*graphEntry, error) {
	key := spec.String()
	gc.mu.Lock()
	el, ok := gc.entries[key]
	if !ok {
		el = gc.order.PushFront(&graphEntry{spec: spec})
		gc.entries[key] = el
		for gc.order.Len() > gc.cap {
			last := gc.order.Back()
			ent := last.Value.(*graphEntry)
			gc.order.Remove(last)
			delete(gc.entries, ent.spec.String())
		}
	} else {
		gc.order.MoveToFront(el)
	}
	entry := el.Value.(*graphEntry)
	gc.mu.Unlock()
	entry.build()
	if entry.err != nil {
		// A failed spec must not occupy a slot of the bounded cache: a
		// stream of distinct garbage specs would otherwise evict every
		// warm graph.
		gc.mu.Lock()
		if cur, ok := gc.entries[key]; ok && cur.Value.(*graphEntry) == entry {
			gc.order.Remove(cur)
			delete(gc.entries, key)
		}
		gc.mu.Unlock()
	}
	return entry, entry.err
}
