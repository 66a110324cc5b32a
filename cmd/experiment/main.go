// Command experiment reproduces the paper's tables and figures. Each
// figure prints its data series as TSV plus annotations; heatmap figures
// print ASCII heatmaps.
//
// Usage:
//
//	experiment -list
//	experiment -figure fig9
//	experiment -figure all -quick
//	experiment -figure fig10 -adult /data/adult.data
//	experiment -figure fig7 -out results/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"privcount/internal/figures"
	"privcount/internal/heatmap"
	"privcount/internal/mat"
)

func main() {
	var (
		figureID = flag.String("figure", "", "figure to reproduce (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available figures")
		quick    = flag.Bool("quick", false, "trim sweeps and repetitions for a fast pass")
		seed     = flag.Uint64("seed", 1, "master random seed")
		outDir   = flag.String("out", "", "directory to write per-figure TSV files (optional)")
		adult    = flag.String("adult", "", "path to a real UCI adult.data file for fig10 (default: calibrated synthetic records)")
	)
	flag.Parse()

	if *list || *figureID == "" {
		titles := figures.Titles()
		fmt.Println("available figures:")
		for _, id := range figures.IDs() {
			fmt.Printf("  %-12s %s\n", id, titles[id])
		}
		if *figureID == "" && !*list {
			fmt.Println("\nselect one with -figure <id> (or -figure all)")
		}
		return
	}

	opts := figures.Options{Quick: *quick, Seed: *seed, AdultPath: *adult}
	var figs []*figures.Figure
	if *figureID == "all" {
		all, err := figures.BuildAll(opts)
		if err != nil {
			fatal(err)
		}
		figs = all
	} else {
		f, err := figures.Build(*figureID, opts)
		if err != nil {
			fatal(err)
		}
		figs = []*figures.Figure{f}
	}

	for _, f := range figs {
		if err := printFigure(os.Stdout, f); err != nil {
			fatal(err)
		}
		if *outDir != "" {
			if err := writeFigure(*outDir, f); err != nil {
				fatal(err)
			}
		}
	}
}

// printFigure writes f's section of the report: its heading, heatmaps,
// TSV tables and notes.
func printFigure(w io.Writer, f *figures.Figure) error {
	fmt.Fprintf(w, "==== %s: %s ====\n", f.ID, f.Title)
	if len(f.Heatmaps) > 0 {
		labels := make([]string, len(f.Heatmaps))
		ms := make([]*mat.Dense, len(f.Heatmaps))
		for i, h := range f.Heatmaps {
			labels[i] = h.Label
			ms[i] = h.M
		}
		fmt.Fprintln(w, heatmap.SideBySide(labels, ms))
	}
	for _, t := range f.Tables {
		if err := t.WriteTSV(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintln(w, "  *", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func writeFigure(dir string, f *figures.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range f.Tables {
		name := fmt.Sprintf("%s_%d.tsv", f.ID, i)
		if len(f.Tables) == 1 {
			name = f.ID + ".tsv"
		}
		file, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteTSV(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
	}
	for _, h := range f.Heatmaps {
		safe := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '_'
			}
		}, h.Label)
		file, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%s.pgm", f.ID, safe)))
		if err != nil {
			return err
		}
		if err := heatmap.WritePGM(file, h.M, 24); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiment:", err)
	os.Exit(1)
}
