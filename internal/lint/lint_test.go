package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mastergreen/internal/lint"
)

// loadFixture type-checks one testdata package and runs the full suite over
// it with no policy scoping.
func loadFixture(t *testing.T, name string) []lint.Finding {
	t.Helper()
	pkg, err := lint.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return lint.Run([]*lint.Package{pkg}, lint.Analyzers(), lint.AllPolicy())
}

var wantRe = regexp.MustCompile(`// want ([a-z,]+)`)

// checkMarkers asserts an exact correspondence between findings and the
// fixture's `// want <analyzer>` line markers: every marked line must
// produce the named finding (true positive) and every unmarked line must
// produce none (true negative).
func checkMarkers(t *testing.T, name string, findings []lint.Finding) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // "file:line:analyzer"
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, a := range strings.Split(m[1], ",") {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, a)] = true
			}
		}
	}
	got := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d:%s", filepath.Base(f.File), f.Line, f.Analyzer)
		got[key] = true
		if !want[key] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing expected finding: %s", key)
		}
	}
}

// TestWallclockFixture loads its fixture as a module so that the fixture can
// import its stand-in clock package and reference clock.Wall.
func TestWallclockFixture(t *testing.T) {
	pkgs, err := lint.LoadModule(filepath.Join("testdata", "src", "wallclock"), "fixture")
	if err != nil {
		t.Fatalf("LoadModule(wallclock): %v", err)
	}
	checkMarkers(t, "wallclock", lint.Run(pkgs, lint.Analyzers(), lint.AllPolicy()))
}
func TestSeedrandFixture(t *testing.T) { checkMarkers(t, "seedrand", loadFixture(t, "seedrand")) }
func TestMaporderFixture(t *testing.T) { checkMarkers(t, "maporder", loadFixture(t, "maporder")) }
func TestLocksendFixture(t *testing.T) { checkMarkers(t, "locksend", loadFixture(t, "locksend")) }
func TestErrdropFixture(t *testing.T)  { checkMarkers(t, "errdrop", loadFixture(t, "errdrop")) }

// The v2 interprocedural analyzers: lock-order cycles, goroutine termination,
// atomic/plain mixing, determinism taint, and locksend through callees.
func TestLockorderFixture(t *testing.T) { checkMarkers(t, "lockorder", loadFixture(t, "lockorder")) }
func TestGoleakFixture(t *testing.T)    { checkMarkers(t, "goleak", loadFixture(t, "goleak")) }
func TestAtomicmixFixture(t *testing.T) { checkMarkers(t, "atomicmix", loadFixture(t, "atomicmix")) }
func TestTainttimeFixture(t *testing.T) { checkMarkers(t, "tainttime", loadFixture(t, "tainttime")) }
func TestLocksendIPFixture(t *testing.T) {
	checkMarkers(t, "locksendip", loadFixture(t, "locksendip"))
}

// TestAlltripFixture pins the edge case of one function tripping every
// analyzer at once.
func TestAlltripFixture(t *testing.T) {
	findings := loadFixture(t, "alltrip")
	checkMarkers(t, "alltrip", findings)
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.Analyzer] = true
	}
	for _, a := range lint.Analyzers() {
		if !seen[a.Name] {
			t.Errorf("alltrip fixture did not trip %s", a.Name)
		}
	}
}

// TestSuppressions covers //lint:ignore edge cases: with a reason (on the
// preceding line and on the finding's own line) the finding is silenced;
// without a reason the finding survives and the directive is reported;
// naming the wrong analyzer suppresses nothing.
func TestSuppressions(t *testing.T) {
	findings := loadFixture(t, "suppress")
	byLine := map[int][]string{}
	for _, f := range findings {
		byLine[f.Line] = append(byLine[f.Line], f.Analyzer)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "src", "suppress", "suppress.go"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lineOf := func(sub string) int {
		for i, l := range lines {
			if strings.Contains(l, sub) {
				return i + 1
			}
		}
		t.Fatalf("fixture line containing %q not found", sub)
		return 0
	}

	if got := byLine[lineOf("reason provided, finding suppressed")+1]; len(got) != 0 {
		t.Errorf("directive with reason (preceding line) did not suppress: %v", got)
	}
	if got := byLine[lineOf("same-line directive")]; len(got) != 0 {
		t.Errorf("same-line directive with reason did not suppress: %v", got)
	}
	bare := 0
	for i, l := range lines {
		if strings.TrimSpace(l) == "//lint:ignore wallclock" {
			bare = i + 1
		}
	}
	if bare == 0 {
		t.Fatal("bare directive line not found")
	}
	if got := byLine[bare]; len(got) != 1 || got[0] != "mglint" {
		t.Errorf("reasonless directive not reported as mglint finding: %v", got)
	}
	if got := byLine[bare+1]; len(got) != 1 || got[0] != "wallclock" {
		t.Errorf("finding under reasonless directive was not kept: %v", got)
	}
	if got := byLine[lineOf("names the wrong analyzer")+1]; len(got) != 1 || got[0] != "wallclock" {
		t.Errorf("directive naming another analyzer suppressed the finding: %v", got)
	}
}

// TestGeneratedSkipped verifies generated-file skipping: the fixture's
// time.Now produces no finding.
func TestGeneratedSkipped(t *testing.T) {
	if findings := loadFixture(t, "generated"); len(findings) != 0 {
		t.Errorf("findings reported in a generated file: %v", findings)
	}
}

// TestPolicyMatching pins the pattern forms the table supports.
func TestPolicyMatching(t *testing.T) {
	p := lint.TablePolicy{
		{Analyzer: "a", Packages: []string{"internal/sim"}},
		{Analyzer: "b", Packages: []string{"internal/..."}},
		{Analyzer: "c", Packages: []string{"..."}},
	}
	cases := []struct {
		analyzer, rel string
		want          bool
	}{
		{"a", "internal/sim", true},
		{"a", "internal/simx", false},
		{"a", "internal/sim/sub", false},
		{"b", "internal/planner", true},
		{"b", "internal", true},
		{"b", "cmd/mg", false},
		{"c", "", true},
		{"c", "cmd/mg", true},
		{"missing", "internal/sim", false},
	}
	for _, c := range cases {
		if got := p.Applies(c.analyzer, c.rel); got != c.want {
			t.Errorf("Applies(%q, %q) = %v, want %v", c.analyzer, c.rel, got, c.want)
		}
	}
}

// TestModuleClean is the gate's gate: the repository itself must be clean
// under the default policy. It loads and type-checks the whole module (a few
// seconds), so it is skipped under -short.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint load is slow; run without -short")
	}
	root, modpath, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root, modpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost the module", len(pkgs))
	}
	findings := lint.Run(pkgs, lint.Analyzers(), lint.DefaultPolicy)
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// TestDefaultPolicyCoversReliability pins internal/reliability into every
// determinism policy: the fault schedule must replay bit-for-bit from an
// injected seed and clock, so wallclock/seedrand/maporder all apply (and
// the repo-wide locksend/errdrop catch-alls reach it too).
func TestDefaultPolicyCoversReliability(t *testing.T) {
	for _, an := range []string{"wallclock", "seedrand", "maporder", "locksend", "errdrop"} {
		if !lint.DefaultPolicy.Applies(an, "internal/reliability") {
			t.Errorf("DefaultPolicy does not apply %s to internal/reliability", an)
		}
	}
}

// TestDefaultPolicyCoversShardScaleOut pins the shard runtime and arbiter
// packages into every determinism policy: the coordinator's partition and the
// arbiter's total commit order must replay bit-for-bit (the golden trace
// test depends on it), so wallclock/seedrand/maporder all apply, plus the
// repo-wide locksend/errdrop catch-alls.
func TestDefaultPolicyCoversShardScaleOut(t *testing.T) {
	for _, pkg := range []string{"internal/shard", "internal/arbiter"} {
		for _, an := range []string{"wallclock", "seedrand", "maporder", "locksend", "errdrop"} {
			if !lint.DefaultPolicy.Applies(an, pkg) {
				t.Errorf("DefaultPolicy does not apply %s to %s", an, pkg)
			}
		}
	}
}

// TestDefaultPolicyExemptsLoadgen pins internal/loadgen's deliberate scope:
// it is a real-time measurement instrument (open-loop pacing, wall-clock
// latency percentiles), so the determinism analyzers must NOT govern it —
// adding it to wallclock/tainttime would force lint:ignore noise on every
// line of the harness. The repo-wide safety analyzers still apply: a
// deadlock or leaked goroutine in the load harness corrupts measurements.
func TestDefaultPolicyExemptsLoadgen(t *testing.T) {
	for _, an := range []string{"wallclock", "tainttime", "maporder"} {
		if lint.DefaultPolicy.Applies(an, "internal/loadgen") {
			t.Errorf("DefaultPolicy applies %s to internal/loadgen; the load harness measures real time by design", an)
		}
	}
	for _, an := range []string{"locksend", "lockorder", "goleak", "errdrop", "atomicmix"} {
		if !lint.DefaultPolicy.Applies(an, "internal/loadgen") {
			t.Errorf("DefaultPolicy does not apply %s to internal/loadgen", an)
		}
	}
}

// TestDefaultPolicyCoversSched pins internal/sched into the determinism
// policies: policy weights and batch partitions feed the speculation
// engine's plan, which must replay bit-for-bit in the simulator — so
// wallclock (urgency must compute from the injected sim clock, never
// time.Now), seedrand, maporder (batch groups preserve deterministic
// order), and tainttime all apply, plus the repo-wide safety catch-alls.
func TestDefaultPolicyCoversSched(t *testing.T) {
	for _, an := range []string{"wallclock", "seedrand", "maporder", "tainttime", "locksend", "errdrop"} {
		if !lint.DefaultPolicy.Applies(an, "internal/sched") {
			t.Errorf("DefaultPolicy does not apply %s to internal/sched", an)
		}
	}
}
