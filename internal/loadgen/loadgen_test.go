package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeSQD mimics the sqd serving surface: accepts submissions up to a
// capacity, then 429s with Retry-After; sheds status reads while at or above
// 90% occupancy; decides ids on demand (ids ending in 1 or 3 rejected) and
// lists every accepted id's decision in its outcomes log, two a page.
type fakeSQD struct {
	mu       sync.Mutex
	capacity int
	ids      []string
	shed     int // outcomes reads still to shed with 503
}

func fakeState(id string) string {
	if strings.HasSuffix(id, "1") || strings.HasSuffix(id, "3") {
		return "rejected"
	}
	return "committed"
}

func (f *fakeSQD) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/v1/changes", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad json", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.capacity > 0 && len(f.ids) >= f.capacity {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		f.ids = append(f.ids, req.ID)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"pending"}`, req.ID)
	})
	mux.HandleFunc("/api/v1/changes/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/api/v1/changes/")
		fmt.Fprintf(w, `{"id":%q,"state":%q}`, id, fakeState(id))
	})
	mux.HandleFunc("/api/v1/outcomes", func(w http.ResponseWriter, r *http.Request) {
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		wait, err := time.ParseDuration(r.URL.Query().Get("wait"))
		if err != nil {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		shed := f.shed > 0
		f.shed--
		ids := f.ids[min(after, len(f.ids)):min(after+2, len(f.ids))]
		f.mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if len(ids) == 0 {
			time.Sleep(wait) // nothing more is ever decided
		}
		var page struct {
			Outcomes []map[string]string `json:"outcomes"`
			Next     int                 `json:"next"`
		}
		page.Outcomes = []map[string]string{}
		for _, id := range ids {
			page.Outcomes = append(page.Outcomes, map[string]string{"id": id, "state": fakeState(id)})
		}
		page.Next = after + len(ids)
		_ = json.NewEncoder(w).Encode(page)
	})
	mux.HandleFunc("/api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		overloaded := f.capacity > 0 && len(f.ids)*10 >= f.capacity*9
		f.mu.Unlock()
		if overloaded {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"pending":0}`)
	})
	return mux
}

// TestRunPacesAndRecords: a healthy server sees roughly rate*duration
// submissions, all accepted, with per-endpoint latencies recorded and the
// warmup excluded from the measured counts.
func TestRunPacesAndRecords(t *testing.T) {
	f := &fakeSQD{}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	res, err := Run(Config{
		BaseURL:    ts.URL,
		Rate:       200,
		Duration:   500 * time.Millisecond,
		Warmup:     100 * time.Millisecond,
		PollRate:   100,
		StatusRate: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Open loop: offered tracks rate*duration (scheduling jitter aside).
	if res.Offered < 80 || res.Offered > 110 {
		t.Fatalf("offered = %d, want ~100", res.Offered)
	}
	if res.Accepted != res.Offered {
		t.Fatalf("accepted = %d, offered = %d (healthy server should accept all)",
			res.Accepted, res.Offered)
	}
	if res.Throttled != 0 || res.Errors != 0 {
		t.Fatalf("throttled = %d, errors = %d, want 0", res.Throttled, res.Errors)
	}
	// Warmup submissions are in AcceptedIDs but not in measured counts.
	if len(res.AcceptedIDs) <= res.Accepted {
		t.Fatalf("AcceptedIDs = %d, should include warmup beyond measured %d",
			len(res.AcceptedIDs), res.Accepted)
	}
	if res.Submit.Count != res.Accepted || res.Submit.P999Ms < res.Submit.P50Ms {
		t.Fatalf("submit latency summary inconsistent: %+v", res.Submit)
	}
	if res.StatePolls == 0 || res.StatePoll.Count != res.StatePolls {
		t.Fatalf("state polls = %d, summary count = %d", res.StatePolls, res.StatePoll.Count)
	}
	if res.StatusReads == 0 || res.StatusShed != 0 {
		t.Fatalf("status reads = %d shed = %d, want reads>0 shed=0", res.StatusReads, res.StatusShed)
	}
	if res.Sustained() < 60*60 { // 100 accepted in ~0.5s ≫ 3600/min
		t.Fatalf("sustained = %.0f/min, implausibly low", res.Sustained())
	}
}

// TestRunCountsBackpressure: a saturated server yields 429s (with the
// Retry-After surfaced) and 503-shed status reads, not errors.
func TestRunCountsBackpressure(t *testing.T) {
	f := &fakeSQD{capacity: 10}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	res, err := Run(Config{
		BaseURL:    ts.URL,
		Rate:       200,
		Duration:   400 * time.Millisecond,
		StatusRate: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 10 {
		t.Fatalf("accepted = %d, want capacity 10", res.Accepted)
	}
	if res.Throttled < 10 {
		t.Fatalf("throttled = %d, want the rest of the stream", res.Throttled)
	}
	if res.RetryAfterMean != 7 {
		t.Fatalf("retry-after mean = %.1f, want 7", res.RetryAfterMean)
	}
	if res.StatusShed == 0 {
		t.Fatalf("status shed = 0, want >0 once saturated")
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (backpressure is not an error)", res.Errors)
	}
}

// TestFollow reads the decision log page by page, through a shed read, and
// tallies the accepted ids overall and per lane; an id the log never names
// is undecided once the deadline passes.
func TestFollow(t *testing.T) {
	f := &fakeSQD{ids: []string{"c-0", "c-1", "c-2", "other-3", "c-p0-4", "c-p2-13", "c-3"}, shed: 1}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	ids := []string{"c-0", "c-1", "c-2", "c-3", "c-p0-4", "c-p2-13", "c-lost"}
	d, err := Follow(SharedClient(1), ts.URL, ids, time.Now().Add(1500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	want := Decisions{
		Tally: Tally{Committed: 3, Rejected: 3, Undecided: 1},
		Lanes: map[string]*Tally{
			"P0": {Committed: 1},
			"P1": {Committed: 2, Rejected: 2, Undecided: 1},
			"P2": {Rejected: 1},
		},
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Follow = %+v, want %+v", d, want)
	}
}

// TestRunRejectsBadConfig: unreachable server and invalid rates fail fast.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{BaseURL: "", Rate: 1, Duration: time.Second}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	if _, err := Run(Config{BaseURL: "http://x", Rate: 0, Duration: time.Second}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(Config{BaseURL: "http://127.0.0.1:1", Rate: 1, Duration: time.Second}); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

// TestSummarizePercentiles: the tail percentiles order correctly.
func TestSummarizePercentiles(t *testing.T) {
	var ms []float64
	for i := 1; i <= 1000; i++ {
		ms = append(ms, float64(i))
	}
	l := summarize(ms)
	if l.Count != 1000 || l.P50Ms > l.P95Ms || l.P95Ms > l.P99Ms || l.P99Ms > l.P999Ms || l.P999Ms > l.MaxMs {
		t.Fatalf("summary out of order: %+v", l)
	}
	if l.MaxMs != 1000 {
		t.Fatalf("max = %v, want 1000", l.MaxMs)
	}
	if z := summarize(nil); z.Count != 0 || z.MaxMs != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

// TestParseSeconds covers the Retry-After parser.
func TestParseSeconds(t *testing.T) {
	if n, ok := parseSeconds("30"); !ok || n != 30 {
		t.Fatalf("parseSeconds(30) = %d, %v", n, ok)
	}
	for _, bad := range []string{"", "-1", "1.5", "Wed, 21 Oct 2015 07:28:00 GMT", "99999999"} {
		if _, ok := parseSeconds(bad); ok {
			t.Fatalf("parseSeconds(%q) accepted", bad)
		}
	}
}
