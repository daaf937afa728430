// Command jgre-run is the front end over the scenario registry: it
// lists and runs every registered experiment — each table, figure and
// study of the evaluation — and prints the result.
//
// Usage:
//
//	jgre-run list
//	jgre-run <scenario> [-scale quick|full] [-parallel n] [-filter a,b] [-json]
//
// Stdout carries only the result: the scenario's text report (render.go)
// or, with -json or for a result type without a report, the shared JSON
// envelope. The run header and the wall-clock footer go to stderr, so
// the text report depends on the scenario, scale and filter alone;
// results/run_all.sh writes results/<scenario>.txt from it.
//
// Parallelizable scenarios (marked in jgre-run list) fan out across
// -parallel workers; every shard runs on its own simulated device, so
// the output is identical for any worker count. -filter is accepted only
// by scenarios that sweep named targets (fig3 takes interface names).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jgre-run: ")

	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "list" || name == "-list" || name == "--list" {
		list()
		return
	}

	fs := flag.NewFlagSet("jgre-run "+name, flag.ExitOnError)
	scaleName := fs.String("scale", "quick", "quick or full")
	workers := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker count (1 = sequential; results are identical)")
	filter := fs.String("filter", "", "comma-separated sweep targets (fig3: interface names; empty = all)")
	asJSON := fs.Bool("json", false, "emit the shared result envelope as JSON")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	s, ok := scenario.Lookup(name)
	if !ok {
		log.Printf("unknown scenario %q", name)
		if hint := scenario.Suggest(name); hint != "" {
			fmt.Fprintf(os.Stderr, "did you mean %q?\n", hint)
		}
		fmt.Fprintln(os.Stderr, "registered scenarios:")
		for _, reg := range scenario.List() {
			fmt.Fprintf(os.Stderr, "  %-20s %-10s %s\n", reg.Name, reg.Group, reg.Description)
		}
		os.Exit(2)
	}
	scale, err := scenario.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	p := scenario.Params{Scale: scale, Workers: *workers}
	if *filter != "" {
		for _, f := range strings.Split(*filter, ",") {
			if f = strings.TrimSpace(f); f != "" {
				p.Filter = append(p.Filter, f)
			}
		}
	}

	env, err := s.Execute(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scenario %s (group %s, scale %s, workers %d)\n", env.Scenario, env.Group, env.Scale, env.Workers)
	if err := write(os.Stdout, env, *asJSON); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "completed in %.0f ms\n", env.WallMS)
}

// write prints the run's result: the text report when the result has
// one and asJSON is off, the envelope JSON otherwise.
func write(w io.Writer, env *scenario.Envelope, asJSON bool) error {
	if !asJSON && render(w, env.Result) {
		return nil
	}
	out, err := env.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// list prints the registry grouped by scenario group (the registry's
// sort order is group-major, so one pass suffices).
func list() {
	fmt.Printf("  %-20s %-9s %s\n", "SCENARIO", "PARALLEL", "DESCRIPTION")
	group := ""
	for _, s := range scenario.List() {
		if s.Group != group {
			group = s.Group
			fmt.Printf("\n%s\n", strings.ToUpper(group))
		}
		par := "-"
		if s.Parallelizable {
			par = "yes"
		}
		fmt.Printf("  %-20s %-9s %s\n", s.Name, par, s.Description)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  jgre-run list
  jgre-run <scenario> [-scale quick|full] [-parallel n] [-filter a,b] [-json]`)
}
