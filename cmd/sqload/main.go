// Command sqload drives a running sqd instance with the open-loop load
// harness (internal/loadgen): submissions are paced at a fixed target rate
// regardless of server speed, mixed with state polls and status reads, and
// the run reports per-endpoint latency percentiles up to P99.9 plus the
// admission/backpressure counters — an end-to-end exercise of the whole
// serving stack (API → queue → analyzer → speculation → planner → build
// controller → monorepo).
//
// Usage (against a default sqd):
//
//	sqd &
//	sqload -url http://localhost:8080 -rate 50 -duration 10s -warmup 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mastergreen/internal/loadgen"
)

func main() {
	base := flag.String("url", "http://localhost:8080", "sqd base URL")
	rate := flag.Float64("rate", 20, "target submissions per second (open loop)")
	duration := flag.Duration("duration", 10*time.Second, "measured window")
	warmup := flag.Duration("warmup", time.Second, "warmup at -rate before measuring")
	pollRate := flag.Float64("poll-rate", 0, "state polls per second over accepted ids (0 = rate/2)")
	statusRate := flag.Float64("status-rate", 2, "status reads per second")
	inFlight := flag.Int("in-flight", 512, "max concurrent HTTP requests")
	drainTimeout := flag.Duration("drain", 30*time.Second, "after the run, follow the decision log up to this long for accepted changes to decide (0 = skip)")
	hotfixEvery := flag.Int("hotfix-every", 0, "every n-th submission uses the P0 hotfix lane (0 = none)")
	bulkEvery := flag.Int("bulk-every", 0, "every n-th submission uses the P2 bulk lane with a deadline (0 = none)")
	flag.Parse()

	if *pollRate == 0 {
		*pollRate = *rate / 2
	}
	// Salt ids with the start time so repeated runs against one long-lived
	// sqd never collide.
	prefix := fmt.Sprintf("load-%d", time.Now().UnixNano())
	client := loadgen.SharedClient(*inFlight)

	request := loadgen.DefaultRequest(prefix)
	if *hotfixEvery > 0 || *bulkEvery > 0 {
		request = loadgen.PriorityRequest(prefix, *hotfixEvery, *bulkEvery)
	}
	res, err := loadgen.Run(loadgen.Config{
		BaseURL:     *base,
		Rate:        *rate,
		Duration:    *duration,
		Warmup:      *warmup,
		MaxInFlight: *inFlight,
		Client:      client,
		Request:     request,
		PollRate:    *pollRate,
		StatusRate:  *statusRate,
	})
	if err != nil {
		log.Fatalf("sqload: %v", err)
	}

	fmt.Printf("sqload: offered %d (%.0f/s), accepted %d (%.0f/min sustained), throttled %d, errors %d\n",
		res.Offered, res.OfferedPerSec, res.Accepted, res.Sustained(), res.Throttled, res.Errors)
	if res.Throttled > 0 {
		fmt.Printf("backpressure: mean Retry-After %.1fs\n", res.RetryAfterMean)
	}
	fmt.Printf("submit  %s\n", res.Submit)
	if res.StatePoll.Count > 0 {
		fmt.Printf("state   %s\n", res.StatePoll)
	}
	if res.StatusRead.Count > 0 || res.StatusShed > 0 {
		fmt.Printf("status  %s  (shed %d)\n", res.StatusRead, res.StatusShed)
	}

	if *drainTimeout > 0 && len(res.AcceptedIDs) > 0 {
		d, err := loadgen.Follow(client, *base, res.AcceptedIDs, time.Now().Add(*drainTimeout))
		if err != nil {
			log.Fatalf("sqload: following the decision log: %v", err)
		}
		fmt.Printf("decisions: %d committed, %d rejected, %d undecided (of %d accepted)\n",
			d.Committed, d.Rejected, d.Undecided, len(res.AcceptedIDs))
		if *hotfixEvery > 0 || *bulkEvery > 0 {
			for _, lane := range []string{"P0", "P1", "P2"} {
				t := d.Lanes[lane]
				fmt.Printf("decisions[%s]: %d committed, %d rejected, %d undecided\n", lane, t.Committed, t.Rejected, t.Undecided)
			}
		}
		if d.Undecided > 0 {
			fmt.Printf("sqload: %d accepted changes still undecided after %v\n", d.Undecided, *drainTimeout)
			os.Exit(1)
		}
	}
	if res.Accepted == 0 {
		fmt.Println("sqload: no submissions accepted")
		os.Exit(1)
	}
}
