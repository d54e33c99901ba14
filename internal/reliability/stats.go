package reliability

// Stats counts the reliability layer's work. Injector counters are zero when
// no fault injector is attached.
type Stats struct {
	// Injected faults, by class.
	InjectedTransients int
	InjectedSlows      int
	InjectedStucks     int
	InjectedCrashes    int

	// Detector: content-addressed step-unit outcomes recorded, fail→pass
	// flake confirmations, identities ever proven flaky, identities whose
	// failure was confirmed genuine (two consecutive fails), kinds
	// quarantined, and histories not tracked because the cap was reached.
	UnitsRecorded    int
	FlakesConfirmed  int
	FlakyUnits       int
	GenuineFailures  int
	QuarantinedKinds int
	HistoryDropped   int

	// Retry policy: in-place retries granted, denials by exhausted epoch
	// budget, and retries skipped because the identity was confirmed genuine.
	Retries              int
	RetryBudgetDenied    int
	GenuineShortCircuits int

	// Planner integration: verification re-runs granted (quarantine-grants
	// counted separately as well) and rejections averted by a passing re-run.
	Verifications           int
	QuarantineVerifications int
	RejectionsAverted       int
}
