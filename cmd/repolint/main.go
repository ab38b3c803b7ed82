// Command repolint runs the repository's custom static-analysis suite
// (internal/lint) over the given package patterns:
//
//	go run ./cmd/repolint ./...         # the whole tree, as CI does
//	go run ./cmd/repolint ./internal/sched ./cmd/...
//
// The analyzers and the invariants they encode — detmaprange, simclock,
// telguard, unitmix — are documented in internal/lint and DESIGN.md §10,
// together with the //lint:wallclock and //lint:orderinsensitive escape
// hatches.
//
// Exit code contract (pinned by cmd/repolint tests): 0 when the tree is
// clean, 1 on any diagnostic, 2 on usage or load errors. The binary
// runs standalone rather than as a `go vet -vettool`: the vettool wire
// protocol needs x/tools' unitchecker, which this offline-buildable
// module deliberately does not depend on.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: repolint package-patterns...\n")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		return 2
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		return 2
	}
	var paths []string
	for _, pat := range patterns {
		ps, err := loader.Expand(pat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			return 2
		}
		paths = append(paths, ps...)
	}
	var pkgs []*lint.Package
	loadFailed := false
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			loadFailed = true
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if loadFailed {
		return 2
	}

	diags, err := lint.Run(lint.Default(), pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		return 2
	}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: %s [%s]\n", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
