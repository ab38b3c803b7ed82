// Chaos walkthrough: deterministic fault injection under a power cap —
// node failures, checkpoint/restart, and a grid power emergency, on one
// seeded and exactly replayable schedule.
//
// The paper's machines are assumed healthy; real power-constrained
// clusters are not. internal/faults describes what goes wrong — scripted
// "rank 3 dies at t=10" events and per-pool MTBF/MTTR exponential
// failure/repair processes — and the scheduler degrades gracefully: a rank
// failure kills the jobs running on it mid-phase, killed jobs resume
// from their last periodic checkpoint (re-executing the work since it,
// plus a restart surcharge) under a capped retry budget, and every
// decision keeps pricing against the cap actually in force. Because all
// stochastic draws come from one explicit-source RNG, the same (seed,
// plan) pair replays the same disasters bit for bit — a failure
// scenario is a regression test, not an anecdote.
//
// Run it:
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/units"
)

// run schedules the trace on 16 SystemG ranks under the budget and the
// fault plan.
func run(budget *capplan.Plan, plan *faults.Plan, pol sched.Policy, trace []sched.Job) sched.Result {
	s, err := sched.New(sched.Config{
		Platform: machine.Homogeneous(machine.SystemG()),
		Ranks:    16,
		Plan:     budget,
		Policy:   pol,
		Seed:     1,
		Faults:   plan,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(trace)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	// Step 1 — a healthy baseline: 16 SystemG ranks, 24 jobs, 900 W.
	// The fault-free run sets the yardstick (and its makespan scales the
	// fault plans below, so the walkthrough is robust to model changes).
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 1})
	flat := capplan.Constant(900)
	base := run(flat, nil, sched.Backfill(sched.EEMax()), trace)
	mk := base.Makespan
	fmt.Printf("healthy fleet: %d done in %v, %v per job, availability %.4f\n\n",
		base.Completed, base.Makespan, base.EnergyPerJob, base.Availability)

	// Step 2 — one scripted failure, checkpoint/restart priced in. Rank
	// sets are taken low-rank-first, so rank 0 is busy early in the
	// trace; killing it mid-run aborts a job, discards the work since
	// its last checkpoint (LostWork, at the admitted operating point),
	// writes off the attempt's measured energy (WastedEnergy), and
	// requeues the job to resume from the checkpoint.
	scripted := &faults.Plan{
		Scripted: []faults.Scripted{
			{Rank: 0, T: mk / 5},
			{Rank: 0, T: mk / 3, Repair: true},
		},
		MaxRetries:      3,
		CheckpointEvery: mk / 20,
		RestartCost:     mk / 100,
	}
	one := run(flat, scripted, sched.Backfill(sched.EEMax()), trace)
	fmt.Printf("one scripted failure (plan %q):\n", scripted)
	fmt.Printf("  %d kill, %d restart, %d checkpoints; lost work %v, wasted energy %v\n",
		one.Kills, one.Restarts, one.Checkpoints, one.LostWork, one.WastedEnergy)
	fmt.Printf("  %d done, %d lost, availability %.4f, violations %d\n\n",
		one.Completed, one.JobsLost, one.Availability, one.CapViolations)

	// Step 3 — stochastic churn: an exponential failure process on every
	// rank (MTBF about half the trace, MTTR a tenth of that), the same
	// spec the schedrun CLI takes. Replaying the identical (seed, plan)
	// pair must reproduce the identical schedule — kills, restarts and
	// all — which is what makes chaos testing a regression suite.
	spec := fmt.Sprintf("mtbf=*:%g,mttr=*:%g,retries=4,ckpt=%g,restart=%g",
		float64(mk/2), float64(mk/20), float64(mk/20), float64(mk/100))
	churnPlan, err := faults.ParsePlan(spec)
	if err != nil {
		log.Fatal(err)
	}
	churn := run(flat, churnPlan, sched.Backfill(sched.EEMax()), trace)
	replay := run(flat, churnPlan, sched.Backfill(sched.EEMax()), trace)
	if churn.Makespan != replay.Makespan || churn.Failures != replay.Failures ||
		churn.Restarts != replay.Restarts || churn.TotalEnergy != replay.TotalEnergy {
		log.Fatal("replay diverged — fault injection must be deterministic per (seed, plan)")
	}
	fmt.Printf("stochastic churn (spec %q):\n", spec)
	fmt.Printf("  %d failures, %d repairs, %d kills, %d restarts, %d lost; availability %.4f\n",
		churn.Failures, churn.Repairs, churn.Kills, churn.Restarts, churn.JobsLost, churn.Availability)
	fmt.Printf("  replay is bit-identical: makespan %v, energy %v\n\n", replay.Makespan, replay.TotalEnergy)

	// Step 4 — a power emergency: the utility caps the feed at 700 W for
	// the middle third of the run. A clamp is a window of the cap plan,
	// so admission, the governor and the audit all price against it —
	// zero violations against the cap in force.
	squeeze, err := capplan.ParsePlan(fmt.Sprintf("0:900,%g:700,%g:900", float64(mk/3), float64(2*mk/3)))
	if err != nil {
		log.Fatal(err)
	}
	dr := run(squeeze, &faults.Plan{MaxRetries: 1}, sched.Backfill(sched.EEMax()), trace)
	fmt.Printf("power emergency (%s): violations %d against the plan %s\n",
		units.Watts(700), dr.CapViolations, dr.Plan)
	fmt.Printf("budget windows (cap utilisation %.1f%%):\n%s\n", dr.CapUtilisation*100, dr.WindowTable())

	for _, res := range []sched.Result{one, churn, dr} {
		if res.CapViolations != 0 {
			log.Fatalf("%s violated the cap %d times", res.Policy, res.CapViolations)
		}
		if got := res.Completed + res.Rejected + res.JobsLost; got != len(trace) {
			log.Fatalf("%s stranded jobs: %d terminal of %d", res.Policy, got, len(trace))
		}
	}

	// The CLI runs the same matrix: schedrun -faults "fail=3@10,..."
	// (mtbf=*:S,mttr=*:S for a wildcard process) exits 3 on any
	// violation and 4 on any permanently lost job.
	fmt.Println("CLI recipe: go run ./cmd/schedrun -jobs 24 -ranks 16 -cap 900 \\")
	fmt.Printf("    -policy backfill+ee-max -faults %q\n", spec)
}
