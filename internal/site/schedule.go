package site

// Round-robin scheduling over clients (DESIGN.md §11).
//
// A site steps ready contexts, and admits queued Submits, in round robin over
// client ids: wire.Submit.ClientID at the originator, client 0 for the
// participant work that arrives by Deref or Seed. Each turn serves the oldest
// entry of the next client in the ring, so a client with ten queries in
// flight gets no more turns than a client with one. Within a client the order
// is FIFO, and Step re-queues a context at its client's tail while work
// remains. With a single client — every caller that leaves ClientID unset —
// that is exactly the paper's round robin over the contexts with work.
//
// Participant work shares client 0 instead of inheriting the submitting
// client's id: carrying ids through the protocol would change no answer.

import "slices"

// lane is one client's FIFO within a rotation. It lives while it holds
// entries or holders and no longer, so no per-client state outlives the
// client's last live context or queued Submit.
type lane[T comparable] struct {
	client uint64
	// items[head:] are the queued entries, oldest first. A pop advances head
	// instead of re-slicing, so the backing array survives the pop and a
	// lane popped and pushed back every turn never reallocates.
	items []T
	head  int
	// holders counts the live contexts pinned to this lane (the ready
	// rotation only). A held lane keeps its ring slot while its one context
	// is out being stepped, so a client with a single query does not fall to
	// the back of the ring after every turn.
	holders int
	inRing  bool
}

// queued returns l's entries, oldest first.
func (l *lane[T]) queued() []T { return l.items[l.head:] }

// rotation serves per-client lanes in round robin. Every lane with entries
// is in the ring; an empty lane leaves it when a visit finds it empty.
type rotation[T comparable] struct {
	lanes map[uint64]*lane[T]
	ring  []*lane[T]
	next  int // ring index served next
	n     int // queued entries over all lanes
}

// lane returns client's lane, creating it on first use.
func (r *rotation[T]) lane(client uint64) *lane[T] {
	l := r.lanes[client]
	if l == nil {
		if r.lanes == nil {
			r.lanes = make(map[uint64]*lane[T])
		}
		l = &lane[T]{client: client}
		r.lanes[client] = l
	}
	return l
}

// hold returns client's lane with one more holder; release gives it back.
func (r *rotation[T]) hold(client uint64) *lane[T] {
	l := r.lane(client)
	l.holders++
	return l
}

// release drops one holder of l, freeing l when nothing else keeps it.
func (r *rotation[T]) release(l *lane[T]) {
	l.holders--
	if l.holders > 0 || len(l.queued()) > 0 {
		return
	}
	if l.inRing {
		r.unring(slices.Index(r.ring, l))
		return
	}
	delete(r.lanes, l.client)
}

// push queues v at the tail of l, entering l into the ring if it was out.
func (r *rotation[T]) push(l *lane[T], v T) {
	if l.head > 0 && len(l.items) == cap(l.items) {
		// The lane is about to grow while popped slots sit in front of head:
		// compact in place instead of reallocating.
		n := copy(l.items, l.queued())
		clear(l.items[n:])
		l.items, l.head = l.items[:n], 0
	}
	l.items = append(l.items, v)
	r.n++
	if !l.inRing {
		l.inRing = true
		r.ring = append(r.ring, l)
	}
}

// take removes l's queued entry at index i. Taking the head advances head,
// so a pop is O(1) however long the lane; the lane rewinds to the front of
// its array when it empties.
func (r *rotation[T]) take(l *lane[T], i int) {
	if i == 0 {
		var zero T
		l.items[l.head] = zero
		l.head++
		if l.head == len(l.items) {
			l.items, l.head = l.items[:0], 0
		}
	} else {
		l.items = slices.Delete(l.items, l.head+i, l.head+i+1)
	}
	r.n--
}

// remove deletes v from l's queue, if it is there.
func (r *rotation[T]) remove(l *lane[T], v T) {
	if i := slices.Index(l.queued(), v); i >= 0 {
		r.take(l, i)
	}
}

// unring takes the empty lane at ring index i out of the ring, freeing it
// when unheld, and keeps next on the lane it pointed at.
func (r *rotation[T]) unring(i int) {
	l := r.ring[i]
	l.inRing = false
	r.ring = slices.Delete(r.ring, i, i+1)
	if i < r.next {
		r.next--
	}
	if l.holders == 0 {
		delete(r.lanes, l.client)
	}
}

// prune drops l's head entries that live rejects.
func (r *rotation[T]) prune(l *lane[T], live func(T) bool) {
	for len(l.queued()) > 0 && !live(l.items[l.head]) {
		r.take(l, 0)
	}
}

// pop takes the oldest live entry of the next lane in the ring. shared
// reports that another lane was in the ring at that turn, i.e. another
// client waited; ok is false when no lane holds a live entry.
func (r *rotation[T]) pop(live func(T) bool) (v T, shared, ok bool) {
	for len(r.ring) > 0 {
		if r.next >= len(r.ring) {
			r.next = 0
		}
		l := r.ring[r.next]
		r.prune(l, live)
		if len(l.queued()) == 0 {
			r.unring(r.next)
			continue
		}
		v, shared = l.items[l.head], len(r.ring) > 1
		r.take(l, 0)
		r.next++
		if len(l.queued()) == 0 && l.holders == 0 {
			r.unring(r.next - 1)
		}
		return v, shared, true
	}
	return v, false, false
}

// any reports whether some lane holds a live entry, pruning dead heads and
// emptied lanes on the way.
func (r *rotation[T]) any(live func(T) bool) bool {
	for i := 0; i < len(r.ring); {
		l := r.ring[i]
		r.prune(l, live)
		if len(l.queued()) > 0 {
			return true
		}
		r.unring(i)
	}
	return false
}

// has reports whether some queued entry satisfies f.
func (r *rotation[T]) has(f func(T) bool) bool {
	for _, l := range r.ring {
		if slices.ContainsFunc(l.queued(), f) {
			return true
		}
	}
	return false
}

// filter drops every queued entry keep rejects, in ring order.
func (r *rotation[T]) filter(keep func(T) bool) {
	for i := 0; i < len(r.ring); {
		l := r.ring[i]
		kept := l.items[:0]
		for _, v := range l.queued() {
			if keep(v) {
				kept = append(kept, v)
			}
		}
		r.n -= len(l.queued()) - len(kept)
		clear(l.items[len(kept):])
		l.items, l.head = kept, 0
		if len(kept) == 0 {
			r.unring(i)
			continue
		}
		i++
	}
}
