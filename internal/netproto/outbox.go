package netproto

import "sync"

// outbox is one session's outbound queue of framed bytes. Producers
// append under the mutex and wake the writer, which takes everything
// pending and issues one Write per wake-up. Nothing is dropped: a post
// that would take the backlog past the cap closes the outbox and calls
// overflow (the controller closes and counts the session), and the
// AP's reconnect receives the quarantines in force as resume frames.
type outbox struct {
	mu       sync.Mutex
	drained  sync.Cond // signalled when the writer takes buf
	buf      []byte    // framed bytes the writer has not taken
	frames   int       // frames in buf
	limit    int
	closed   bool
	overflow func()
	wake     chan struct{} // cap 1: something was posted
}

func newOutbox(limit int, overflow func()) *outbox {
	o := &outbox{limit: limit, overflow: overflow, wake: make(chan struct{}, 1)}
	o.drained.L = &o.mu
	return o
}

// post appends n framed frames and reports whether they were queued.
// With wait set (the backpressure of journal streams and query replies)
// it first waits while the backlog is above a quarter of the cap. A
// frame too large for the writer to keep is adopted, not copied, into
// an empty outbox: callers hand large frames over.
func (o *outbox) post(b []byte, n int, wait bool) bool {
	o.mu.Lock()
	for wait && !o.closed && len(o.buf) > 0 && len(o.buf)+len(b) > o.limit/4 {
		o.drained.Wait()
	}
	if !o.closed && len(o.buf) > 0 && len(o.buf)+len(b) > o.limit {
		o.closed, o.buf, o.frames = true, nil, 0
		o.mu.Unlock()
		o.overflow()
		return false
	}
	defer o.mu.Unlock()
	switch {
	case o.closed:
		return false
	case len(o.buf) == 0 && len(b) > frameKeep:
		o.buf = b
	default:
		o.buf = append(o.buf, b...)
	}
	o.frames += n
	select {
	case o.wake <- struct{}{}:
	default:
	}
	return true
}

// prepend puts n framed frames ahead of everything pending.
func (o *outbox) prepend(b []byte, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf, o.frames = append(b, o.buf...), o.frames+n
}

// take hands the writer everything pending, recycling written (the
// buffer of its previous Write) unless a large frame grew it.
func (o *outbox) take(written []byte) []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := o.buf
	o.buf, o.frames = nil, 0
	if cap(written) <= frameKeep {
		o.buf = written[:0]
	}
	o.drained.Broadcast()
	return b
}

// depth is the number of frames pending.
func (o *outbox) depth() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.frames
}

// close drops the backlog, refuses further posts and wakes waiters.
func (o *outbox) close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closed, o.buf, o.frames = true, nil, 0
	o.drained.Broadcast()
}
