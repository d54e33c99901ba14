package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

func mkChange(id string) *change.Change {
	return &change.Change{
		ID:          change.ID(id),
		Author:      change.Developer{Name: "alice", Team: "infra", Level: 4, EmploymentMonths: 20},
		Description: "desc " + id,
		SubmittedAt: time.Unix(1000, 0).UTC(),
		BaseCommit:  "base123",
		BuildSteps:  change.DefaultBuildSteps(),
		Patch: repo.Patch{Changes: []repo.FileChange{
			{Path: "a.go", Op: repo.OpModify, BaseHash: "h1", NewContent: "new"},
			{Path: "b.go", Op: repo.OpCreate, NewContent: "b"},
		}},
		Revision: &change.Revision{ID: "r1", SubmitCount: 2, TestPlan: true},
		Stats:    change.Stats{FilesChanged: 2, LinesAdded: 10},
	}
}

// roundTrip appends c to a fresh journal and replays it.
func roundTrip(t *testing.T, c *change.Change) *change.Change {
	t.Helper()
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit(c); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if err != nil || len(recs) != 1 || recs[0].Kind != KindSubmit {
		t.Fatalf("replayed %+v, %v", recs, err)
	}
	return recs[0].Submit
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := mkChange("c1")
	got := roundTrip(t, c)
	if got.ID != c.ID || got.Author != c.Author || got.Description != c.Description {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.BaseCommit != c.BaseCommit || !got.SubmittedAt.Equal(c.SubmittedAt) {
		t.Fatalf("base/time mismatch: %+v", got)
	}
	if len(got.BuildSteps) != len(c.BuildSteps) || got.BuildSteps[0].Kind != change.StepCompile {
		t.Fatalf("steps mismatch: %+v", got.BuildSteps)
	}
	if len(got.Patch.Changes) != 2 || got.Patch.Changes[0].BaseHash != "h1" {
		t.Fatalf("patch mismatch: %+v", got.Patch)
	}
	if got.Revision == nil || got.Revision.SubmitCount != 2 || !got.Revision.TestPlan {
		t.Fatalf("revision mismatch: %+v", got.Revision)
	}
	if got.Stats != c.Stats {
		t.Fatalf("stats mismatch: %+v", got.Stats)
	}
}

func TestEncodeDecodeLineEdit(t *testing.T) {
	c := mkChange("le")
	c.Patch = repo.Patch{Changes: []repo.FileChange{
		repo.EditLines("a.go", 7, []string{"old1", "old2"}, []string{"new"}),
	}}
	got := roundTrip(t, c)
	fc := got.Patch.Changes[0]
	if fc.Op != repo.OpEditLines || fc.StartLine != 7 ||
		len(fc.OldLines) != 2 || fc.OldLines[1] != "old2" || fc.NewLines[0] != "new" {
		t.Fatalf("line edit lost in round trip: %+v", fc)
	}
}

// TestJournalRoundTripsEveryField appends a change whose every exported
// field but Spec (the live speculation counters) is set, replays the
// journal and gets the same change back: a field added to change.Change
// without a durable form fails here.
func TestJournalRoundTripsEveryField(t *testing.T) {
	c := &change.Change{}
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && f.Name != "Spec" {
			fill(t, v.Field(i))
			if v.Field(i).IsZero() {
				t.Fatalf("fill left %s zero", f.Name)
			}
		}
	}
	if got := roundTrip(t, c); !reflect.DeepEqual(got, c) {
		t.Fatalf("replayed %+v\nwant %+v", got, c)
	}
}

// fill sets v, and every exported field reachable from it, to a non-zero
// value.
func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	if v.Type() == reflect.TypeOf(time.Time{}) {
		v.Set(reflect.ValueOf(time.Unix(1_700_000_000, 7).UTC()))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(2)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("fill: no non-zero value for %s", v.Type())
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit(mkChange("c1")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit(mkChange("c2")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendOutcome(OutcomeRecord{ID: "c1", State: "committed", At: time.Unix(2000, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent; Append after Close fails.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit(mkChange("c3")); err != ErrClosed {
		t.Fatalf("append after close = %v", err)
	}

	recs, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	pending, outcomes := PendingFromRecords(recs)
	if len(pending) != 1 || pending[0].ID != "c2" {
		t.Fatalf("pending = %v", pending)
	}
	if len(outcomes) != 1 || outcomes[0].State != "committed" {
		t.Fatalf("outcomes = %v", outcomes)
	}
}

func TestReplayMissingFile(t *testing.T) {
	recs, err := Replay(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: %v, %v", recs, err)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Open(path)
	_ = j.AppendSubmit(mkChange("c1"))
	_ = j.Close()
	// Simulate a crash mid-write: append half a record.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"kind":"submit","sub`)
	f.Close()
	recs, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
}

func TestReplayRejectsMidFileCorruption(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Open(path)
	_ = j.AppendSubmit(mkChange("c1"))
	_ = j.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("GARBAGE\n")
	f.Close()
	j2, _ := Open(path)
	_ = j2.AppendSubmit(mkChange("c2"))
	_ = j2.Close()
	if _, err := Replay(path); err == nil {
		t.Fatal("mid-file corruption must be reported")
	}
}

func TestJournalAppendAfterReopen(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Open(path)
	_ = j.AppendSubmit(mkChange("c1"))
	_ = j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = j2.AppendSubmit(mkChange("c2"))
	_ = j2.Close()
	recs, err := Replay(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs = %d, %v", len(recs), err)
	}
}

func TestSyncEveryBatches(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Open(path)
	j.SyncEvery = 10
	for i := 0; i < 25; i++ {
		if err := j.AppendSubmit(mkChange(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	_ = j.Close()
	recs, err := Replay(path)
	if err != nil || len(recs) != 25 {
		t.Fatalf("recs = %d, %v", len(recs), err)
	}
}

// TestOpenEndsTornTailOnALine: Open ends the file on a line boundary, so a
// record appended after a crash never merges into the torn one: a final
// line that decodes gets its newline, one that does not is cut off, however
// long it is.
func TestOpenEndsTornTailOnALine(t *testing.T) {
	big := mkChange("big")
	big.Description = strings.Repeat("x", 10_000) // spans several read-back chunks
	line, err := json.Marshal(Record{Kind: KindSubmit, Submit: big})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(Record{Kind: KindSubmit, Submit: mkChange("c1")})
	if err != nil {
		t.Fatal(err)
	}
	first = append(first, '\n')
	for _, tc := range []struct {
		name string
		data []byte
		want []change.ID
	}{
		{"whole last line", append(first[:len(first):len(first)], line...), []change.ID{"c1", "big", "c2"}},
		{"torn last line", append(first[:len(first):len(first)], line[:len(line)-3]...), []change.ID{"c1", "c2"}},
		{"torn only line", line[:len(line)-3], []change.ID{"c2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpJournal(t)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendSubmit(mkChange("c2")); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []change.ID
			for _, r := range recs {
				got = append(got, r.Submit.ID)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replayed %v, want %v", got, tc.want)
			}
		})
	}
}
