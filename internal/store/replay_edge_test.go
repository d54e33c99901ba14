package store

import (
	"os"
	"strings"
	"testing"
)

// TestReplayTornLineOnly: a journal holding nothing but a partial record (a
// crash during the very first append) replays as empty, not as an error.
func TestReplayTornLineOnly(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte(`{"kind":"submit","sub`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if err != nil {
		t.Fatalf("torn-only journal must replay clean: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("records = %d, want 0", len(recs))
	}
}

// TestReplayCorruptionReportsLineNumber: mid-file corruption must name the
// exact line, so the operator can inspect (and surgically repair) the
// journal.
func TestReplayCorruptionReportsLineNumber(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = j.AppendSubmit(mkChange("c1"))
	_ = j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.WriteString("NOT JSON\n")
	_ = f.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = j2.AppendSubmit(mkChange("c2"))
	_ = j2.Close()

	_, err = Replay(path)
	if err == nil {
		t.Fatal("mid-file corruption must be reported")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name the corrupt line (want \"line 2\")", err)
	}
}
