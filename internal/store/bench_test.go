package store

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mastergreen/internal/change"
)

// buildHistory writes a journal with n records: submissions that are all
// decided except the last `livePending` ones — the shape of a long-running
// service's history.
func buildHistory(b *testing.B, path string, n, livePending int) {
	b.Helper()
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	j.SyncEvery = 1 << 30 // bulk load; one sync on close
	subs := (n + 1) / 2
	for i := 0; i < subs; i++ {
		if err := j.AppendSubmit(mkChange(fmt.Sprintf("h-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	decided := subs - livePending
	if decided < 0 {
		decided = 0
	}
	for i := 0; i < n-subs && i < decided; i++ {
		o := OutcomeRecord{ID: change.ID(fmt.Sprintf("h-%06d", i)), State: "committed",
			Commit: "c", At: time.Unix(int64(i), 0).UTC()}
		if err := j.AppendOutcome(o); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchRestart(b *testing.B, path string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := LoadState(path)
		if err != nil {
			b.Fatal(err)
		}
		pending, _ := PendingFromRecords(recs)
		_ = pending
	}
}

// BenchmarkReplayEmpty is the restart floor: loading a journal with no
// history at all.
func BenchmarkReplayEmpty(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	_ = j.Close()
	benchRestart(b, path)
}

// BenchmarkReplayLiveOnly is the restart floor for a service with live
// state: a journal holding exactly the live set (8 pending, 16 recent
// outcomes) and nothing else. Any restart must parse at least this much, so
// this — not the zero-state floor — is the fair baseline for the
// snapshotted restart below.
func BenchmarkReplayLiveOnly(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	buildHistory(b, path, 8+16+16, 8) // 20 submits, 12 decided; ~live-state-sized
	benchRestart(b, path)
}

// BenchmarkReplay100k is restart cost without snapshots: the full
// 100k-record history is parsed and folded on every boot.
func BenchmarkReplay100k(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	buildHistory(b, path, 100_000, 8)
	benchRestart(b, path)
}

// BenchmarkReplay100kSnapshotted is restart cost with snapshots: the same
// 100k-record history folded into a snapshot (8 live pending + a small
// outcome tail), which is all a boot replays. Two snapshots model the
// steady state of a periodic -snapshot-interval: the first folds the long
// tail (carrying its crash-window tombstones), the second — taken over the
// now-empty tail — converges to the live state alone. The headline
// comparison is this benchmark against BenchmarkReplayEmpty, the
// empty-journal floor.
func BenchmarkReplay100kSnapshotted(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	buildHistory(b, path, 100_000, 8)
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Snapshot("bench-head", 16, time.Unix(1, 0).UTC()); err != nil {
		b.Fatal(err)
	}
	if err := j.Snapshot("bench-head", 16, time.Unix(2, 0).UTC()); err != nil {
		b.Fatal(err)
	}
	_ = j.Close()
	benchRestart(b, path)
}

// BenchmarkJournalAppendSerial measures the durable append path with a
// single writer: one fsync per append, the group-commit floor.
func BenchmarkJournalAppendSerial(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	c := mkChange("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.AppendSubmit(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendParallel measures group commit under contention:
// concurrent appenders coalesce into far fewer fsyncs than appends while
// every append still returns durable.
func BenchmarkJournalAppendParallel(b *testing.B) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	j, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	c := mkChange("bench")
	b.ReportAllocs()
	// RunParallel defaults to GOMAXPROCS goroutines — on a single-core
	// runner that is one appender and group commit never engages; fsyncs
	// block in the kernel, not on the CPU, so force real contention.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := j.AppendSubmit(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(j.Syncs())/float64(b.N), "fsyncs/op")
}
