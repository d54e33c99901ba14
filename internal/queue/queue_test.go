package queue

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

func mk(id string) *change.Change {
	return &change.Change{
		ID: change.ID(id),
		Patch: repo.Patch{Changes: []repo.FileChange{
			{Path: "f", Op: repo.OpCreate, NewContent: "x"},
		}},
		BuildSteps: change.DefaultBuildSteps(),
	}
}

func TestEnqueueOrder(t *testing.T) {
	q := New(4)
	for _, id := range []string{"c3", "c1", "c2"} {
		if err := q.Enqueue(mk(id)); err != nil {
			t.Fatal(err)
		}
	}
	got := q.Pending()
	if len(got) != 3 || got[0].ID != "c3" || got[1].ID != "c1" || got[2].ID != "c2" {
		t.Fatalf("order = %v", got)
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestEnqueueValidates(t *testing.T) {
	q := New(1)
	bad := &change.Change{ID: "x"} // no patch, no steps
	if err := q.Enqueue(bad); err == nil {
		t.Fatal("invalid change accepted")
	}
}

func TestDuplicateEnqueue(t *testing.T) {
	q := New(1)
	if err := q.Enqueue(mk("c1")); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(mk("c1")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveGetContains(t *testing.T) {
	q := New(2)
	if err := q.Enqueue(mk("c1")); err != nil {
		t.Fatal(err)
	}
	c, err := q.Get("c1")
	if err != nil || c.ID != "c1" {
		t.Fatalf("Get = %v, %v", c, err)
	}
	if !q.Contains("c1") {
		t.Fatal("Contains = false")
	}
	if err := q.Remove("c1"); err != nil {
		t.Fatal(err)
	}
	if q.Contains("c1") || q.Len() != 0 {
		t.Fatal("remove did not take effect")
	}
	if err := q.Remove("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
	if _, err := q.Get("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get removed err = %v", err)
	}
}

// seqOf reads the sequence number of a live entry.
func seqOf(q *Queue, id change.ID) (uint64, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	e, ok := q.entries[id]
	if !ok {
		return 0, false
	}
	return e.seq, true
}

func TestSeqMonotone(t *testing.T) {
	q := New(3)
	var prev uint64
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("c%d", i)
		if err := q.Enqueue(mk(id)); err != nil {
			t.Fatal(err)
		}
		s, ok := seqOf(q, change.ID(id))
		if !ok {
			t.Fatalf("%s not enqueued", id)
		}
		if i > 0 && s <= prev {
			t.Fatalf("seq not monotone: %d after %d", s, prev)
		}
		prev = s
	}
}

func TestConcurrentAccess(t *testing.T) {
	q := New(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("c%d-%d", w, i)
				if err := q.Enqueue(mk(id)); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := q.Remove(change.ID(id)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if q.Len() != 8*25 {
		t.Fatalf("len = %d, want %d", q.Len(), 8*25)
	}
	// Pending is globally ordered.
	pend := q.Pending()
	var prev uint64
	for i, c := range pend {
		s, _ := seqOf(q, c.ID)
		if i > 0 && s <= prev {
			t.Fatal("global order broken")
		}
		prev = s
	}
}

// TestPendingMatchesSortedReference drives random Enqueue and Remove
// sequences and compares Pending after every operation with the live set
// sorted by sequence number, and AppendPending into a reused slice with
// Pending.
func TestPendingMatchesSortedReference(t *testing.T) {
	var buf []*change.Change // AppendPending's kept slice, reused across trials
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		q := New(1)
		live := map[change.ID]uint64{} // the reference: id → seq
		used := map[uint64]bool{}
		next := 0
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				id := change.ID(fmt.Sprintf("e%d", next))
				next++
				if err := q.Enqueue(mk(string(id))); err != nil {
					t.Fatal(err)
				}
				seq, ok := seqOf(q, id)
				if !ok || used[seq] {
					t.Fatalf("trial %d: Enqueue gave seq %d (present %v), already used: %v", trial, seq, ok, used[seq])
				}
				live[id], used[seq] = seq, true
			default:
				if len(live) == 0 {
					continue
				}
				ids := make([]change.ID, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				id := ids[rng.Intn(len(ids))]
				if err := q.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id) // its seq stays used: Enqueue never hands it out again
			}
			want := make([]change.ID, 0, len(live))
			for id := range live {
				want = append(want, id)
			}
			sort.Slice(want, func(i, j int) bool { return live[want[i]] < live[want[j]] })
			got := q.Pending()
			if len(got) != len(want) || q.Len() != len(want) {
				t.Fatalf("trial %d op %d: Pending has %d changes, Len %d, want %d", trial, op, len(got), q.Len(), len(want))
			}
			for i, c := range got {
				if c.ID != want[i] {
					t.Fatalf("trial %d op %d: Pending[%d] = %s, want %s", trial, op, i, c.ID, want[i])
				}
			}
			if buf = q.AppendPending(buf[:0]); !slices.Equal(buf, got) {
				t.Fatalf("trial %d op %d: AppendPending differs from Pending", trial, op)
			}
		}
	}
}

// TestAppendPendingAllocs: reading the order into a slice the caller keeps
// allocates nothing once the slice is large enough.
func TestAppendPendingAllocs(t *testing.T) {
	q := New(1)
	for i := 0; i < 64; i++ {
		if err := q.Enqueue(mk(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := q.AppendPending(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = q.AppendPending(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendPending allocates %v times into a kept slice, want 0", allocs)
	}
	if len(buf) != 64 {
		t.Fatalf("AppendPending returned %d changes, want 64", len(buf))
	}
}
