// Package cli is the one front door of every command but repolint: the
// flag groups commands share, the run's output lifecycle, and the exit
// contract. A command is a run(args, stdout, stderr) error that
// registers flags on its own FlagSet and returns; Main maps the error's
// class to the exit ladder, so nothing else calls os.Exit and every
// deferred close runs on every path. DESIGN.md §14 has the contract.
package cli

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// exitError is an error with a rung on the exit ladder. A nil err is a
// silent exit: the run (or the flag package) already said why.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return fmt.Sprint(e.err) }

// Usage marks err as the operator's: a flag value no run can be built
// from. It exits 2; every other error is a failure and exits 1.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return &exitError{code: 2, err: err}
}

// Usagef is Usage over a formatted message.
func Usagef(format string, args ...any) error { return Usage(fmt.Errorf(format, args...)) }

// Verdict is a finished run's exit class — 3 when some run exceeded its
// cap, 4 when some job was permanently lost, violations winning. Both
// are silent: the command reports them on stdout itself.
func Verdict(violated, lost bool) error {
	switch {
	case violated:
		return &exitError{code: 3}
	case lost:
		return &exitError{code: 4}
	}
	return nil
}

// Exit maps a run's error to its exit code, printing the one stderr
// line a usage error or failure gets.
func Exit(err error, stderr io.Writer) int {
	var e *exitError
	switch {
	case err == nil:
		return 0
	case !errors.As(err, &e):
		e = &exitError{code: 1, err: err}
	}
	if e.err != nil {
		fmt.Fprintln(stderr, e.err)
	}
	return e.code
}

// Main runs a command against the process's arguments and streams and
// exits with its code.
func Main(run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(Exit(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// Parse parses args and returns which flags were given. It applies the
// one numeric rule every float flag obeys: finite and not negative.
func Parse(fs *flag.FlagSet, args []string) (given map[string]bool, err error) {
	switch perr := fs.Parse(args); {
	case errors.Is(perr, flag.ErrHelp):
		return nil, &exitError{code: 0}
	case perr != nil:
		return nil, &exitError{code: 2} // the flag package printed it
	}
	given = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	fs.VisitAll(func(f *flag.Flag) {
		g, ok := f.Value.(flag.Getter)
		if !ok || err != nil {
			return
		}
		switch v, isFloat := g.Get().(float64); {
		case !isFloat:
		case !units.Finite(v):
			err = Usagef("-%s %g must be finite", f.Name, v)
		case v < 0:
			err = Usagef("-%s %g must not be negative", f.Name, v)
		}
	})
	return given, err
}

// MachineFlags registers -cluster and, unless freqUsage is empty, -freq;
// resolve, called after Parse, returns the preset and the frequency the
// flags name, 0 Hz meaning the preset's nominal one.
func MachineFlags(fs *flag.FlagSet, freqUsage string) (resolve func() (machine.Spec, units.Hertz, error)) {
	presets := machine.Presets()
	have := strings.Join(slices.Sorted(maps.Keys(presets)), ", ")
	name, freq := fs.String("cluster", "systemg", "cluster preset: "+have), new(float64)
	if freqUsage != "" {
		freq = fs.Float64("freq", 0, freqUsage)
	}
	return func() (machine.Spec, units.Hertz, error) {
		spec, ok := presets[strings.ToLower(*name)]
		if !ok {
			return spec, 0, Usagef("-cluster %q: have %s", *name, have)
		}
		return spec, cmp.Or(units.Hertz(*freq), spec.BaseFreq), nil
	}
}

// TraceFlags registers the synthetic-trace group, -jobs and -seed; jobs,
// called after Parse, generates the default trace. Its jobs are
// moldable, so one trace serves any platform and a 1-site fedrun sees
// the trace schedrun does.
func TraceFlags(fs *flag.FlagSet, n int) (seed *int64, jobs func() ([]sched.Job, error)) {
	count := fs.Int("jobs", n, "number of jobs in the synthetic trace")
	seed = fs.Int64("seed", 1, "trace and simulation seed")
	return seed, func() ([]sched.Job, error) {
		if *count < 0 {
			return nil, Usagef("-jobs %d must not be negative", *count)
		}
		return sched.SyntheticTrace(sched.TraceConfig{Jobs: *count, Seed: *seed}), nil
	}
}

// Budget is the power-budget flag group: a constant -cap or a timeline
// spec flag — exactly one source.
type Budget struct {
	cap  *float64
	spec *string
}

// BudgetFlags registers -cap and the timeline spec flag under the name
// and usage the command gives it.
func BudgetFlags(fs *flag.FlagSet, cap float64, capUsage, specFlag, specUsage string) *Budget {
	return &Budget{
		cap:  fs.Float64("cap", cap, capUsage),
		spec: fs.String(specFlag, "", specUsage),
	}
}

// Plan resolves the group to the budget timeline; timeline reports
// whether it came from the spec rather than the constant -cap.
func (b *Budget) Plan(given map[string]bool) (plan *capplan.Plan, timeline bool, err error) {
	if *b.spec == "" {
		plan, err = capplan.Steps(capplan.Segment{Cap: units.Watts(*b.cap)})
		return plan, false, Usage(err)
	}
	if plan, err = capplan.ParsePlan(*b.spec); err != nil {
		return nil, false, Usage(err)
	}
	if given["cap"] {
		return nil, false, Usagef("-cap cannot combine with a budget timeline; put the constant in the plan's first window instead")
	}
	return plan, true, nil
}

// Sweep returns a registry's whole contents in name order, with the
// baseline leading so a comparison table reads baseline vs. contenders.
func Sweep[V any](registry map[string]V, baseline string) (names []string, values []V) {
	names = slices.Sorted(maps.Keys(registry))
	sort.SliceStable(names, func(a, b int) bool { return names[a] == baseline && names[b] != baseline })
	for _, name := range names {
		values = append(values, registry[name])
	}
	return names, values
}

// Select resolves a registry flag: a registered name, or "all" for the
// Sweep.
func Select[V any](flagName, val string, registry map[string]V, baseline string) ([]V, error) {
	names, all := Sweep(registry, baseline)
	if v, ok := registry[val]; ok {
		return []V{v}, nil
	}
	if val != "all" {
		return nil, Usagef("-%s %q: have %s, all", flagName, val, strings.Join(names, ", "))
	}
	return all, nil
}

// JSONFlag registers -json.
func JSONFlag(fs *flag.FlagSet) *string {
	return fs.String("json", "", `write machine-readable results as JSON to this file ("-" = stdout)`)
}

// WriteJSON writes the indented results to path ("-" = stdout, "" = off).
func WriteJSON(path string, stdout io.Writer, results any) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ListenStatus starts the live status server -status asks for and
// announces it; an empty addr is no server. The caller closes it.
func ListenStatus(addr string, stdout io.Writer) (*obs.StatusServer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.ListenStatus(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "status: http://%s (JSON at /status.json, Prometheus at /metrics)\n\n", srv.Addr())
	return srv, nil
}

// Outputs owns what one run opened — telemetry recorders and the files
// behind their sinks — behind one Close that reports the first error of
// the lot. Create is sticky on failure so sink wiring stays linear.
type Outputs struct {
	recs  []*telemetry.Recorder
	files []*os.File
	err   error
}

func (o *Outputs) keep(err error) {
	if o.err == nil {
		o.err = err
	}
}

// Create opens a sink file; after a failure it hands out io.Discard and
// Err and Close report the failure.
func (o *Outputs) Create(path string) io.Writer {
	f, err := os.Create(path)
	if err != nil {
		o.keep(err)
		return io.Discard
	}
	o.files = append(o.files, f)
	return f
}

// Recorder returns a new recorder over sinks that Close will finalise.
func (o *Outputs) Recorder(sinks ...telemetry.Sink) *telemetry.Recorder {
	rec := telemetry.New(sinks...)
	o.recs = append(o.recs, rec)
	return rec
}

// Err is the first Create failure so far.
func (o *Outputs) Err() error { return o.err }

// Close finalises every recorder, then closes every file, and returns
// the first error; a second Close is a no-op.
func (o *Outputs) Close() error {
	for _, rec := range o.recs {
		o.keep(rec.Close())
		o.keep(rec.Metrics().Err())
	}
	for _, f := range o.files {
		o.keep(f.Close())
	}
	o.recs, o.files = nil, nil
	return o.err
}
