// Command traceq queries NDJSON decision traces offline (the logs
// schedrun -events and fedrun -events write). It is a thin CLI over
// internal/traceq:
//
//	traceq why <job> <trace.ndjson>     one job's causal admission chain
//	traceq critpath <trace.ndjson>      longest dependency chain to makespan
//	traceq windows <trace.ndjson>       per-cap-window rollup table
//	traceq summary <trace.ndjson>       events per kind, ranked block reasons, violations
//	traceq merge [site=]a.ndjson ...    deterministic cross-site merge (NDJSON on stdout)
//
// Exit codes: 0 success, 1 I/O or query error, 2 usage.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/traceq"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: traceq <command> [args]

commands:
  why <job> <trace.ndjson>      explain one job: lifecycle, ranked block
                                reasons, and the causal admission chain
  critpath <trace.ndjson>       the longest wait/run dependency chain
                                ending at the last completion
  windows <trace.ndjson>        per-cap-window rollup table
  summary <trace.ndjson>        stream-wide totals: events per kind,
                                ranked block reasons, cap violations
  merge [site=]a.ndjson [site=]b.ndjson ...
                                merge traces by sim time into one NDJSON
                                stream on stdout, stamping Site from the
                                optional site= label (default: file base
                                name) on events that carry none
`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "traceq: %v\n", err)
	os.Exit(1)
}

func load(path string) []telemetry.Event {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	evs, err := telemetry.DecodeNDJSON(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	return evs
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "why":
		if len(os.Args) != 4 {
			usage()
		}
		job, err := strconv.Atoi(os.Args[2])
		if err != nil {
			fmt.Fprintf(os.Stderr, "traceq: job must be an integer, got %q\n", os.Args[2])
			usage()
		}
		if err := traceq.Why(os.Stdout, load(os.Args[3]), job); err != nil {
			fail(err)
		}
	case "critpath", "windows", "summary":
		if len(os.Args) != 3 {
			usage()
		}
		query := map[string]func(io.Writer, []telemetry.Event) error{
			"critpath": traceq.Critpath, "windows": traceq.Windows, "summary": traceq.Summary,
		}[os.Args[1]]
		if err := query(os.Stdout, load(os.Args[2])); err != nil {
			fail(err)
		}
	case "merge":
		if len(os.Args) < 3 {
			usage()
		}
		var traces []traceq.NamedTrace
		for _, arg := range os.Args[2:] {
			site, path := "", arg
			if i := strings.Index(arg, "="); i > 0 && !strings.Contains(arg[:i], string(os.PathSeparator)) {
				site, path = arg[:i], arg[i+1:]
			}
			if site == "" {
				site = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			}
			traces = append(traces, traceq.NamedTrace{Site: site, Events: load(path)})
		}
		if err := traceq.Merge(os.Stdout, traces); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "traceq: unknown command %q\n", os.Args[1])
		usage()
	}
}
