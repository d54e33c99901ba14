//go:build race

package api

// raceEnabled: under -race, sync.Pool drops a share of its Puts on purpose,
// so per-request allocation budgets that lean on pools cannot hold.
const raceEnabled = true
