package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privcount/internal/design"
	"privcount/internal/figures"
)

func TestWriteFigureProducesArtifacts(t *testing.T) {
	f, err := figures.Build("fig7", figures.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeFigure(dir, f); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var pgm int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pgm") {
			pgm++
		}
	}
	if pgm != 3 {
		t.Fatalf("want 3 PGM heatmaps for fig7, got %d (%v)", pgm, entries)
	}
}

func TestWriteFigureTSVNaming(t *testing.T) {
	f, err := figures.Build("fig9", figures.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeFigure(dir, f); err != nil {
		t.Fatal(err)
	}
	// fig9 has three tables -> numbered files.
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, "fig9_"+string(rune('0'+i))+".tsv")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing %s: %v", path, err)
		}
		if !strings.Contains(string(b), "GM") {
			t.Errorf("%s missing GM column", path)
		}
	}
}

// TestFiguresHistoryFree pins that the reproduction does not depend on
// what the process computed before: the section `-figure all -quick`
// prints for each figure must equal the section printed when that
// figure runs alone. fig11-13, whose WM columns are LP solves at
// neighbouring α, are the ones a carried-over LP basis used to move.
func TestFiguresHistoryFree(t *testing.T) {
	opts := figures.Options{Quick: true, Seed: 1}
	design.ClearCache()
	all, err := figures.BuildAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	inAll := map[string]string{}
	for _, f := range all {
		var buf bytes.Buffer
		if err := printFigure(&buf, f); err != nil {
			t.Fatal(err)
		}
		inAll[f.ID] = buf.String()
	}
	for _, id := range figures.IDs() {
		// A fresh process starts with empty design caches.
		design.ClearCache()
		f, err := figures.Build(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := printFigure(&buf, f); err != nil {
			t.Fatal(err)
		}
		if alone := buf.String(); alone != inAll[id] {
			t.Errorf("%s printed alone differs from its section of -figure all:\nalone:\n%s\nin all:\n%s", id, alone, inAll[id])
		}
	}
}
