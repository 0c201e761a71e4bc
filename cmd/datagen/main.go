// Command datagen generates, inspects, saves and reloads the synthetic
// dataset analogs (Table 3):
//
//	datagen -profile small                      # print statistics
//	datagen -profile bench -dataset papers -out papers.gnnds
//	datagen -in papers.gnnds                    # inspect a saved file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		profile = fs.String("profile", "small", cliutil.ProfileUsage)
		dataset = fs.String("dataset", "", "one dataset (default: all)")
		out     = fs.String("out", "", "save the selected dataset to this file")
		analyze = fs.Bool("analyze", false, "run graph analytics (triangles, components, k-core)")
		in      = fs.String("in", "", "load and describe a saved dataset file")
	)
	if help, err := cliutil.ParseFlags(fs, args, stderr); help || err != nil {
		return err
	}
	show := func(d *datasets.Dataset) {
		describe(stdout, d)
		if *analyze {
			analyzeGraph(stdout, d)
		}
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		d, err := graphio.ReadDataset(f)
		if err != nil {
			return err
		}
		show(d)
		return nil
	}

	prof, err := cliutil.ParseProfile(*profile)
	if err != nil {
		return err
	}
	names := datasets.Names()
	if *dataset != "" {
		names = []string{*dataset}
	}
	if *out != "" && len(names) > 1 {
		return fmt.Errorf("-out requires -dataset to select one dataset")
	}
	for _, name := range names {
		d, err := datasets.ByName(name, prof)
		if err != nil {
			return err
		}
		show(d)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			if err := graphio.WriteDataset(f, d); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			info, err := os.Stat(*out)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  saved to %s (%d bytes)\n", *out, info.Size())
		}
	}
	return nil
}

func analyzeGraph(w io.Writer, d *datasets.Dataset) {
	tri := graph.TriangleCount(d.Graph)
	_, comps := graph.ConnectedComponents(d.Graph)
	core := graph.KCoreDecomposition(d.Graph)
	maxCore := 0
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	fmt.Fprintf(w, "  triangles=%d components=%d max-core=%d\n", tri, comps, maxCore)
}

func describe(w io.Writer, d *datasets.Dataset) {
	degs := d.Graph.Degrees()
	sort.Ints(degs)
	pct := func(q float64) int { return degs[int(q*float64(len(degs)-1))] }
	fmt.Fprintf(w, "%s: %d vertices, %d edges (avg degree %.1f)\n",
		d.Name, d.Graph.NumVertices(), d.Graph.NumEdges(), d.Graph.AvgDegree())
	fmt.Fprintf(w, "  degree p50=%d p90=%d p99=%d max=%d\n", pct(0.5), pct(0.9), pct(0.99), degs[len(degs)-1])
	fmt.Fprintf(w, "  features=%d classes=%d train/val/test=%d/%d/%d\n",
		d.Features.Cols, d.NumClasses, len(d.Train), len(d.Val), len(d.Test))
	fmt.Fprintf(w, "  batch size=%d batches=%d fanouts=%v ladies width=%d\n",
		d.BatchSize, d.NumBatches(), d.Fanouts, d.LayerWidth)
}
