// Package queue provides the pending-change queue of §3.2: a FIFO keyed by
// change ID that preserves the global submission order serializability is
// defined over. The service keeps one as its intake and one per planner
// engine; spreading work across engines (the paper's Apache Helix sharding,
// §7.1) is the shard runtime's job, not the queue's.
package queue

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"mastergreen/internal/change"
)

// Errors returned by the queue.
var (
	ErrDuplicate = errors.New("queue: change already enqueued")
	ErrNotFound  = errors.New("queue: change not found")
)

// Queue is a sharded FIFO of pending changes. All methods are safe for
// concurrent use.
type Queue struct {
	mu      sync.RWMutex
	shards  int
	nextSeq uint64
	entries map[change.ID]*entry
}

type entry struct {
	c     *change.Change
	seq   uint64
	shard int
}

// New creates a queue with the given shard count (minimum 1).
func New(shards int) *Queue {
	if shards < 1 {
		shards = 1
	}
	return &Queue{shards: shards, entries: map[change.ID]*entry{}}
}

// Shards returns the shard count.
func (q *Queue) Shards() int { return q.shards }

// shardOf consistently maps a change ID to a shard.
func (q *Queue) shardOf(id change.ID) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32()) % q.shards
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
	q.entries[c.ID] = &entry{c: c, seq: q.nextSeq, shard: q.shardOf(c.ID)}
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
	q.entries[c.ID] = &entry{c: c, seq: seq, shard: q.shardOf(c.ID)}
	if seq >= q.nextSeq {
		q.nextSeq = seq + 1
	}
	return nil
}

// Remove deletes a change (after commit or rejection).
func (q *Queue) Remove(id change.ID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.entries[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(q.entries, id)
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
	es := make([]*entry, 0, len(q.entries))
	for _, e := range q.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	out := make([]*change.Change, len(es))
	for i, e := range es {
		out[i] = e.c
	}
	return out
}

// ShardPending returns the pending changes of one shard, in submission order.
func (q *Queue) ShardPending(shard int) []*change.Change {
	q.mu.RLock()
	defer q.mu.RUnlock()
	es := make([]*entry, 0)
	for _, e := range q.entries {
		if e.shard == shard {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	out := make([]*change.Change, len(es))
	for i, e := range es {
		out[i] = e.c
	}
	return out
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
