package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the server's time source: a monotonic real clock with the
// semantics of cmd/eimdb-serve's realClock (Now is the offset since the
// epoch; Schedule fires the wake on a runtime timer at the instant, or
// at once when it is past).  A clock that jumped Now to the scheduled
// instant and fired at once would hang the server (see README.md,
// "Known defect"), so none is used here.
//
// While tracing is on, every wake records a span: its scheduled
// instant, when it fired and when it returned.
type clock struct {
	epoch   time.Time
	tracing atomic.Bool

	mu    sync.Mutex
	wakes []wakeSpan
}

// wakeSpan is one wake callback: scheduled instant, start and end, all
// as offsets from the clock's epoch.
type wakeSpan struct {
	at, start, end time.Duration
}

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) Now() time.Duration { return time.Since(c.epoch) }

func (c *clock) Schedule(at time.Duration, wake func()) {
	d := at - c.Now()
	if d < 0 {
		d = 0
	}
	if !c.tracing.Load() {
		time.AfterFunc(d, wake)
		return
	}
	time.AfterFunc(d, func() {
		start := c.Now()
		wake()
		end := c.Now()
		c.mu.Lock()
		c.wakes = append(c.wakes, wakeSpan{at: at, start: start, end: end})
		c.mu.Unlock()
	})
}

// trace switches span recording on or off and returns the spans
// recorded so far, clearing them.
func (c *clock) trace(on bool) []wakeSpan {
	c.tracing.Store(on)
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.wakes
	c.wakes = nil
	return w
}
