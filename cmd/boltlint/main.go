// Command boltlint runs the repository's determinism, hot-path, and
// concurrency-contract analyzers over the given packages and exits non-zero
// on any diagnostic.
//
// Usage:
//
//	go run ./cmd/boltlint ./...
//	go run ./cmd/boltlint -json ./... | jq .
//
// Exit codes: 0 when the packages are clean, 1 when diagnostics were
// reported, 2 on usage or load errors (packages that do not build). CI
// keys on this split: 1 means "the code violates a contract", 2 means "the
// lint run itself is broken". To observe the split, invoke a built binary —
// `go run` collapses every non-zero child exit to 1.
//
// With -json the diagnostics are written to stdout as one JSON array of
// {file, line, col, analyzer, message} objects (an empty array when clean)
// for machine consumption — the CI job turns them into GitHub annotations.
// The human-readable summary still goes to stderr.
//
// Suppress a finding with //bolt:nolint <analyzer> -- <reason> (the reason
// is mandatory; a suppression that stops matching any diagnostic is itself
// reported as stale); see internal/lint and the "Determinism contract"
// section of DESIGN.md for the contracts each analyzer enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"bolt/internal/lint"
)

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is boltlint with its arguments and output streams passed in; it
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("boltlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: boltlint [-json] [packages]\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-20s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	pkgs, err := lint.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "boltlint: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, lint.All())
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "boltlint: encoding: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "boltlint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
