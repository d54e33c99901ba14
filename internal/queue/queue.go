// Package queue provides the pending-change queue of §3.2: a FIFO keyed by
// change ID that preserves the global submission order serializability is
// defined over. The service keeps one as its intake and one as the planner
// engine's pending set.
package queue

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mastergreen/internal/change"
)

// Errors returned by the queue.
var (
	ErrDuplicate = errors.New("queue: change already enqueued")
	ErrNotFound  = errors.New("queue: change not found")
)

// Queue is a FIFO of pending changes in submission order. It keeps its live
// entries ordered by sequence number as they arrive and leave, so reading
// the order costs a copy and no sorting. All methods are safe for concurrent
// use.
type Queue struct {
	mu      sync.RWMutex
	nextSeq uint64
	entries map[change.ID]*entry
	order   []*entry // the live entries, ascending seq
}

type entry struct {
	c   *change.Change
	seq uint64
}

// New creates an empty queue. The argument is ignored.
func New(int) *Queue {
	return &Queue{entries: map[change.ID]*entry{}}
}

// Enqueue adds a change; the enqueue order defines the submission order the
// speculation engine respects.
func (q *Queue) Enqueue(c *change.Change) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.entries[c.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, c.ID)
	}
	e := &entry{c: c, seq: q.nextSeq}
	q.entries[c.ID] = e
	q.order = append(q.order, e) // nextSeq exceeds every live seq
	q.nextSeq++
	return nil
}

// at returns the position of the first live entry whose seq is not below
// seq. Callers hold q.mu.
func (q *Queue) at(seq uint64) int {
	i, _ := slices.BinarySearchFunc(q.order, seq, func(e *entry, seq uint64) int { return cmp.Compare(e.seq, seq) })
	return i
}

// Remove deletes a change (after commit or rejection).
func (q *Queue) Remove(id change.ID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(q.entries, id)
	i := q.at(e.seq)
	q.order = slices.Delete(q.order, i, i+1)
	return nil
}

// Get returns the enqueued change.
func (q *Queue) Get(id change.ID) (*change.Change, error) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	e, ok := q.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e.c, nil
}

// Contains reports whether the change is enqueued.
func (q *Queue) Contains(id change.ID) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	_, ok := q.entries[id]
	return ok
}

// Len returns the number of pending changes.
func (q *Queue) Len() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return len(q.entries)
}

// Pending returns all pending changes in submission order.
func (q *Queue) Pending() []*change.Change {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.appendLocked(make([]*change.Change, 0, len(q.order)))
}

// AppendPending appends all pending changes to dst in submission order and
// returns the extended slice: a caller that reads the order every epoch
// keeps one slice and allocates nothing once it is large enough.
func (q *Queue) AppendPending(dst []*change.Change) []*change.Change {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.appendLocked(dst)
}

// appendLocked appends the live entries' changes to dst. Callers hold q.mu.
func (q *Queue) appendLocked(dst []*change.Change) []*change.Change {
	for _, e := range q.order {
		dst = append(dst, e.c)
	}
	return dst
}
