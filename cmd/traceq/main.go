// Command traceq queries NDJSON decision traces offline (the logs
// schedrun -events and fedrun -events write): every view of a run's
// decisions is a fold over that one stream. It is a thin CLI over
// internal/traceq:
//
//	traceq why <job> <trace.ndjson>     one job's causal admission chain
//	traceq critpath <trace.ndjson>      longest dependency chain to makespan
//	traceq windows <trace.ndjson>       per-cap-window rollup table
//	traceq summary <trace.ndjson>       events per kind, ranked block reasons, violations
//	traceq chrome <trace.ndjson>        Chrome trace-event JSON for Perfetto on stdout
//	traceq merge [site=]a.ndjson ...    deterministic cross-site merge (NDJSON on stdout)
//
// Exit codes are internal/cli's: 0 success, 1 I/O or query error, 2
// usage (the error line, then the command list).
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/telemetry"
	"repro/internal/traceq"
)

const usageText = `usage: traceq <command> [args]

commands:
  why <job> <trace.ndjson>      explain one job: lifecycle, ranked block
                                reasons, and the causal admission chain
  critpath <trace.ndjson>       the longest wait/run dependency chain
                                ending at the last completion
  windows <trace.ndjson>        per-cap-window rollup table
  summary <trace.ndjson>        stream-wide totals: events per kind,
                                ranked block reasons, cap violations
  chrome <trace.ndjson>         the stream as Chrome trace-event JSON on
                                stdout (open it in ui.perfetto.dev)
  merge [site=]a.ndjson [site=]b.ndjson ...
                                merge traces by sim time into one NDJSON
                                stream on stdout, stamping Site from the
                                optional site= label (default: file base
                                name) on events that carry none`

// usagef is a usage error: what was wrong, then the command list.
func usagef(format string, args ...any) error {
	return cli.Usagef("traceq: %s\n%s", fmt.Sprintf(format, args...), usageText)
}

// load decodes one trace file and refuses one whose time runs
// backwards, from the previous event or from sim time 0: every fold
// walks the stream in sim-time order. Query errors from internal/traceq
// carry the "traceq:" prefix themselves; file errors get it here.
func load(path string) ([]telemetry.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("traceq: %w", err)
	}
	evs, err := telemetry.DecodeNDJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("traceq: %s: %w", path, err)
	}
	last := 0.0
	for i, ev := range evs {
		if float64(ev.T) < last {
			return nil, fmt.Errorf("traceq: %s: line %d: time runs backwards from %gs to %gs",
				path, lineOf(data, i), last, float64(ev.T))
		}
		last = float64(ev.T)
	}
	return evs, nil
}

// lineOf is the 1-based line of the i-th event in an NDJSON stream:
// the decoder skips blank lines, so this counts them back in.
func lineOf(data []byte, i int) (line int) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if i == 0 {
			break
		}
		i--
	}
	return line
}

func main() { cli.Main(run) }

func run(args []string, stdout, _ io.Writer) error {
	if len(args) == 0 {
		return usagef("missing command")
	}
	switch cmd, args := args[0], args[1:]; cmd {
	case "why":
		if len(args) != 2 {
			return usagef("why takes a job ID and one trace file")
		}
		job, err := strconv.Atoi(args[0])
		if err != nil || job < 0 {
			return usagef("job must be a non-negative integer, got %q", args[0])
		}
		evs, err := load(args[1])
		if err != nil {
			return err
		}
		return traceq.Why(stdout, evs, job)
	case "critpath", "windows", "summary", "chrome":
		if len(args) != 1 {
			return usagef("%s takes one trace file", cmd)
		}
		evs, err := load(args[0])
		if err != nil {
			return err
		}
		query := map[string]func(io.Writer, []telemetry.Event) error{
			"critpath": traceq.Critpath, "windows": traceq.Windows, "summary": traceq.Summary,
			"chrome": traceq.Chrome,
		}[cmd]
		return query(stdout, evs)
	case "merge":
		if len(args) == 0 {
			return usagef("merge takes at least one trace file")
		}
		var traces []traceq.NamedTrace
		for _, arg := range args {
			site, path := "", arg
			if i := strings.Index(arg, "="); i > 0 && !strings.Contains(arg[:i], string(os.PathSeparator)) {
				site, path = arg[:i], arg[i+1:]
			}
			if site == "" {
				site = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			}
			evs, err := load(path)
			if err != nil {
				return err
			}
			traces = append(traces, traceq.NamedTrace{Site: site, Events: evs})
		}
		return traceq.Merge(stdout, traces)
	default:
		return usagef("unknown command %q", cmd)
	}
}
