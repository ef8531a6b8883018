// Command lint runs the project's static-analysis suite (package
// internal/analysis) over the module rooted at -C (default ".").
//
// Usage:
//
//	lint [-C dir] [-checks determinism,floatcmp,...] [-list]
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on a
// loading or usage error (a positional argument included: the module
// root is -C). Findings can be silenced in source with
// `//lint:ignore <check> <reason>` on or directly above the line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"prospector/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("C", ".", "module root to analyze (directory containing go.mod)")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lint: unexpected argument %q (the module root is -C)\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	suite := analysis.Suite()
	if *list {
		// Sorted by name with the registry's one-line doc, so the
		// listing doubles as the quick-reference the README table links.
		sorted := append([]*analysis.Check(nil), suite...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, c := range sorted {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	var names []string
	if *checksFlag != "" {
		names = strings.Split(*checksFlag, ",")
	}
	checks, err := analysis.SelectChecks(suite, names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := analysis.LoadDir(*root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := analysis.Run(pkgs, checks)
	if err := analysis.WriteText(stdout, diags); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
