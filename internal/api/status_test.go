package api

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/conflict"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/planner"
	"mastergreen/internal/reliability"
	"mastergreen/internal/repo"
	"mastergreen/internal/sched"
	"mastergreen/internal/shard"
)

var wordStart = regexp.MustCompile(`([a-z0-9])([A-Z])`)

// statusKeys lists the /status gauge each exported field of a Stats type
// renders as. A map field's entry ends in "_" and stands for any of its keys.
func statusKeys(prefix string, t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := prefix + "_" + strings.ToLower(wordStart.ReplaceAllString(f.Name, "${1}_${2}"))
		switch {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			keys = append(keys, name+"_s")
		case f.Type.Kind() == reflect.Map:
			keys = append(keys, name+"_")
		case f.Type.Kind() == reflect.Struct:
			keys = append(keys, statusKeys(name, f.Type)...)
		default:
			keys = append(keys, name)
		}
	}
	return keys
}

// TestStatusReportsEveryStatsField: on a service with every optional layer
// on — priority lanes, fault injection, events and admission — and one change
// decided, /api/v1/status holds exactly the server's gauges and has a gauge
// for every exported field of every Stats struct behind it.
func TestStatusReportsEveryStatsField(t *testing.T) {
	r := repo.New(map[string]string{
		"lib/BUILD":  "target lib srcs=lib.go",
		"lib/lib.go": "lib v1",
	})
	bus := events.NewBus(128)
	inj := reliability.NewInjector(nil, rand.New(rand.NewSource(1)), reliability.InjectorConfig{
		DefaultTransientRate: 1,
		MaxTransientsPerUnit: 1,
	})
	svc := core.NewService(r, core.Config{
		Workers:       2,
		Events:        bus,
		Sched:         sched.Default(),
		FaultInjector: inj,
	})
	srv := NewServer(svc)
	srv.SetEvents(bus)
	srv.EnableAdmission(8)
	sub := SubmitRequest{
		ID:    "c1",
		Files: []FileChange{{Path: "lib/lib.go", Op: "modify", BaseContent: "lib v1", Content: "lib v2"}},
	}
	if rec := doJSON(t, srv, http.MethodPost, "/api/v1/changes", sub); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.ProcessAll(ctx); err != nil {
		t.Fatal(err)
	}

	rec := doJSON(t, srv, http.MethodGet, "/api/v1/status", nil)
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// The hand-written body carries exactly the server's gauges, name for
	// name and value for value.
	g := srv.gauges(nil)
	if len(st.Gauges) != len(g) {
		t.Errorf("/status has %d gauges, the server %d", len(st.Gauges), len(g))
	}
	for _, kv := range g {
		if v, ok := st.Gauges[kv.Name]; !ok || v != kv.Value {
			t.Errorf("/status %s = %v (present %v), the server's gauge is %v", kv.Name, v, ok, kv.Value)
		}
	}
	if st.MainlineLen != 2 || st.Gauges["arbiter_commits"] != 1 || st.Gauges["sched_normal_committed"] != 1 {
		t.Fatalf("status after one commit = %+v", st)
	}
	for prefix, stats := range map[string]any{
		"buildsys":    buildsys.Stats{},
		"conflict":    conflict.Stats{},
		"planner":     planner.Stats{},
		"shard":       shard.Stats{},
		"arbiter":     arbiter.Stats{},
		"reliability": reliability.Stats{},
		"events":      events.Stats{},
		"sched":       sched.Stats{},
		"admission":   AdmissionStats{},
	} {
		for _, key := range statusKeys(prefix, reflect.TypeOf(stats)) {
			found := false
			for name := range st.Gauges {
				if name == key || strings.HasSuffix(key, "_") && strings.HasPrefix(name, key) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("/status has no gauge %s", key)
			}
		}
	}
}

// TestStatusRendersOnRequest: /api/v1/status reads the service on every
// request. A change committed between two reads shows in the second even
// though the service clock has not moved.
func TestStatusRendersOnRequest(t *testing.T) {
	srv, svc, _ := manualService(t)
	get := func() StatusResponse {
		t.Helper()
		rec := doJSON(t, srv, http.MethodGet, "/api/v1/status", nil)
		var st StatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("status = %d %v: %s", rec.Code, err, rec.Body)
		}
		return st
	}
	before := get()
	decideOne(t, srv, svc, 0)
	after := get()
	if after.MainlineLen != before.MainlineLen+1 || after.Pending != 0 || after.MainlineHead == before.MainlineHead {
		t.Fatalf("status after a commit = %+v, before %+v; want one more commit and none pending", after, before)
	}
	if after.Gauges["arbiter_commits"] != before.Gauges["arbiter_commits"]+1 {
		t.Fatalf("arbiter_commits %v after a commit, %v before", after.Gauges["arbiter_commits"], before.Gauges["arbiter_commits"])
	}
}
