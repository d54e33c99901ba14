// Package change defines the domain vocabulary of the paper's development
// life cycle (§3.1): a Revision is a container of Changes; a Change is a code
// patch padded with the build steps that must succeed before the patch can be
// merged into the mainline, plus the metadata the probabilistic model feeds
// on (§7.2).
package change

import (
	"fmt"
	"sync/atomic"
	"time"

	"mastergreen/internal/repo"
)

// ID identifies a change.
type ID string

// RevisionID identifies a revision (a container for changes).
type RevisionID string

// StepKind classifies a build step.
type StepKind int

// Build step kinds, in typical execution order.
const (
	StepCompile StepKind = iota
	StepUnitTest
	StepIntegrationTest
	StepUITest
	StepArtifact
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepCompile:
		return "compile"
	case StepUnitTest:
		return "unit-test"
	case StepIntegrationTest:
		return "integration-test"
	case StepUITest:
		return "ui-test"
	case StepArtifact:
		return "artifact"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// BuildStep is one verification a change must pass before landing.
type BuildStep struct {
	Name string   `json:"name"`
	Kind StepKind `json:"kind"`
	// Target names this step covers; empty means "all affected targets".
	Targets []string `json:"targets,omitempty"`
}

// State is the lifecycle state of a change inside SubmitQueue.
type State int

// Change lifecycle states.
const (
	StatePending State = iota
	StateBuilding
	StateCommitted
	StateRejected
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateBuilding:
		return "building"
	case StateCommitted:
		return "committed"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Class is a change's scheduling priority class. The zero value is
// ClassNormal so every existing caller — and every submission that does not
// ask for a lane — schedules exactly as before the priority lanes existed.
type Class int

// Priority classes, from the default outward. The display names follow the
// incident-severity convention: P0 hotfix, P1 normal, P2 bulk.
const (
	// ClassNormal (P1) is the default lane: ordinary feature work.
	ClassNormal Class = iota
	// ClassHotfix (P0) is the hotfix lane: outage mitigations and security
	// patches. The scheduler weights these far above everything else,
	// exempts their modal path from predictor gating, and lets them preempt
	// running speculative builds.
	ClassHotfix
	// ClassBulk (P2) is the bulk lane: large mechanical refactors and
	// codemods that should soak up idle capacity without displacing normal
	// work. Deadline-aware aging keeps them from starving.
	ClassBulk
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassHotfix:
		return "P0"
	case ClassNormal:
		return "P1"
	case ClassBulk:
		return "P2"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass maps a request-level priority string to a Class. Unknown and
// empty strings fall back to ClassNormal so old clients keep working.
func ParseClass(s string) Class {
	switch s {
	case "P0", "p0", "hotfix":
		return ClassHotfix
	case "P2", "p2", "bulk":
		return ClassBulk
	default:
		return ClassNormal
	}
}

// Developer metadata used as model features (§7.2 "Developer").
type Developer struct {
	Name             string
	Team             string
	Level            int // seniority level, 1..10
	EmploymentMonths int
}

// Revision is a container for storing multiple changes (§3.1). Developers
// amend a revision until a change is approved; revision-level features
// (submit count, revert/test plans) are strong predictors (§7.2).
type Revision struct {
	ID          RevisionID
	Author      Developer
	SubmitCount int  // number of times changes were submitted to this revision
	TestPlan    bool // revision declares a test plan
	RevertPlan  bool // revision declares a revert plan
}

// Stats are the static, per-change features from §7.2 ("Change" category).
type Stats struct {
	NumGitCommits      int
	FilesChanged       int
	LinesAdded         int
	LinesRemoved       int
	HunksChanged       int
	BinariesAdded      int
	BinariesRemoved    int
	AffectedTargets    int
	InitialTestsPassed int // pre-submit checks that succeeded
	InitialTestsFailed int
}

// SpecStats are the dynamic features: the number of speculations for this
// change that succeeded or failed so far (§7.2 "Speculation"). The planner
// updates them as speculative builds finish while the analyzer/predictor
// fan-out reads them concurrently, so access goes through the atomic
// RecordOutcome/Counts pair; direct field access is not synchronized.
type SpecStats struct {
	succeeded int64
	failed    int64
}

// RecordOutcome atomically counts one finished speculation.
func (s *SpecStats) RecordOutcome(ok bool) {
	if ok {
		atomic.AddInt64(&s.succeeded, 1)
	} else {
		atomic.AddInt64(&s.failed, 1)
	}
}

// Counts atomically reads the (succeeded, failed) counters.
func (s *SpecStats) Counts() (succeeded, failed int64) {
	return atomic.LoadInt64(&s.succeeded), atomic.LoadInt64(&s.failed)
}

// Change comprises a developer's code patch padded with build steps that
// must succeed before the patch can be merged (§1), plus metadata.
//
// Its JSON form is the journal's submit record (internal/store): every field
// but Spec, the live speculation counters, is durable.
type Change struct {
	ID          ID        `json:"id"`
	Revision    *Revision `json:"revision,omitempty"`
	Author      Developer `json:"author"`
	Description string    `json:"description"`

	Patch      repo.Patch  `json:"patch"`
	BuildSteps []BuildStep `json:"steps"`

	// BaseCommit is the mainline commit the patch was authored against.
	// Staleness (Fig. 2) is measured from this commit's time.
	BaseCommit repo.CommitID `json:"base_commit"`

	SubmittedAt time.Time `json:"submitted_at"`
	Stats       Stats     `json:"stats"`
	Spec        SpecStats `json:"-"`

	// Benefit weights this change's builds in the speculation engine's
	// value function V = B·P_needed (§4.2.1): "builds for certain projects
	// or with certain priority (e.g., security patches) can have higher
	// values". Zero means the default benefit of 1.
	Benefit float64 `json:"benefit,omitempty"`

	// Class is the scheduling lane (internal/sched): P0 hotfix, P1 normal,
	// P2 bulk. The zero value is ClassNormal, so untouched callers behave
	// exactly as before priority lanes existed.
	Class Class `json:"class,omitempty"`
	// Deadline, when non-zero, is when the author needs a decision. The
	// scheduler ramps the change's weight up as slack shrinks so deadlined
	// bulk work cannot starve behind a sustained hotfix stream.
	Deadline time.Time `json:"deadline"`
}

// Validate reports whether the change is well-formed enough to enqueue.
func (c *Change) Validate() error {
	if c == nil {
		return fmt.Errorf("change: nil change")
	}
	if c.ID == "" {
		return fmt.Errorf("change: empty ID")
	}
	if len(c.Patch.Changes) == 0 {
		return fmt.Errorf("change %s: empty patch", c.ID)
	}
	if len(c.BuildSteps) == 0 {
		return fmt.Errorf("change %s: no build steps", c.ID)
	}
	return nil
}

// DefaultBuildSteps returns the standard pipeline every change runs when the
// author does not customize it: compile, unit, integration, UI, artifact.
func DefaultBuildSteps() []BuildStep {
	return []BuildStep{
		{Name: "compile", Kind: StepCompile},
		{Name: "unit", Kind: StepUnitTest},
		{Name: "integration", Kind: StepIntegrationTest},
		{Name: "ui", Kind: StepUITest},
		{Name: "artifact", Kind: StepArtifact},
	}
}

// Staleness returns how old the change's base is relative to headTime: the
// quantity plotted on the x-axis of Fig. 2.
func (c *Change) Staleness(baseTime, headTime time.Time) time.Duration {
	d := headTime.Sub(baseTime)
	if d < 0 {
		return 0
	}
	return d
}
