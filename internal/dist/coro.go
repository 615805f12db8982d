package dist

import (
	"iter"
	"sync"
)

// coro is one vertex coroutine (iter.Pull over body): next resumes it until
// the running instance yields at Round or ends, stop unwinds it, and yield —
// called only from inside — switches back to the resuming worker. Between
// instances it parks idle, so a released coroutine can run a vertex of a
// later run (only the race build keeps any; see keepIdleCoros).
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	owner interface{ instance() } // the vertex it runs; nil while unowned
}

func (c *coro) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.owner.instance()
		if !yield(struct{}{}) {
			return
		}
	}
}

// keepIdleCoros is how many released idle coroutines stay parked for reuse
// instead of ending. It is 0 — every released coroutine ends — except under
// the race detector (coro_race.go): the Go 1.24 race runtime never frees the
// race state of a coroutine that ends (about 5KB each), so a race-enabled
// test binary executing millions of vertex instances would otherwise grow by
// gigabytes.
var keepIdleCoros = 0

var idleCoros struct {
	sync.Mutex
	list []*coro
}

// getCoro returns a coroutine that runs owner's instance on each resume
// from idle: a parked idle one if there is any, else a new one.
func getCoro(owner interface{ instance() }) *coro {
	var c *coro
	if keepIdleCoros > 0 {
		idleCoros.Lock()
		if n := len(idleCoros.list); n > 0 {
			c = idleCoros.list[n-1]
			idleCoros.list = idleCoros.list[:n-1]
		}
		idleCoros.Unlock()
	}
	if c == nil {
		c = new(coro)
		c.next, c.stop = iter.Pull(c.body)
	}
	c.owner = owner
	return c
}

// putCoro releases an idle coroutine (one not inside an instance): it joins
// the idle set while that holds fewer than keepIdleCoros, and ends otherwise.
func putCoro(c *coro) {
	c.owner = nil
	if keepIdleCoros > 0 {
		idleCoros.Lock()
		if len(idleCoros.list) < keepIdleCoros {
			idleCoros.list = append(idleCoros.list, c)
			idleCoros.Unlock()
			return
		}
		idleCoros.Unlock()
	}
	c.stop()
}
