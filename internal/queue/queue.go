// Package queue provides the pending-change queue of §3.2: a FIFO keyed by
// change ID that preserves the global submission order serializability is
// defined over. The service keeps one as its intake and one per planner
// engine; spreading work across engines (the paper's Apache Helix sharding,
// §7.1) is the shard runtime's job, not the queue's.
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

// EnqueueSeq adds a change under an explicit global submission sequence
// number. The shard layer uses it when moving a change between per-shard
// sub-queues: the change keeps the sequence its original submission assigned,
// so submission order — the order serializability is defined over — survives
// rebalancing.
func (q *Queue) EnqueueSeq(c *change.Change, seq uint64) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("queue: %w", err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.entries[c.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, c.ID)
	}
	e := &entry{c: c, seq: seq}
	q.entries[c.ID] = e
	q.order = slices.Insert(q.order, q.at(seq), e)
	if seq >= q.nextSeq {
		q.nextSeq = seq + 1
	}
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
	for q.order[i] != e { // entries sharing a seq sit side by side
		i++
	}
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

// Seq returns the global submission sequence number of a change.
func (q *Queue) Seq(id change.ID) (uint64, error) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	e, ok := q.entries[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e.seq, nil
}
