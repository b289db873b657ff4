package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCountTablesMatchGolden holds every table to its copy under testdata/.
// fig2 and lockcounts — ROADMAP's "must not move" pair — were generated at
// the commit before the locking policy moved into core/protocol.go; smo,
// recovery and media at the commit that made them counts. A change that
// means to move a count regenerates its table:
//
//	go run ./cmd/ariesim-bench -table fig2 > cmd/ariesim-bench/testdata/fig2.golden
func TestCountTablesMatchGolden(t *testing.T) {
	for _, tb := range tables {
		t.Run(tb.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tb.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, tb.name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("-table %s moved:\n%s\nwant:\n%s", tb.name, got.Bytes(), want)
			}
		})
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) != len(tables) {
		t.Fatalf("%d goldens for %d tables (%v)", len(goldens), len(tables), err)
	}
	if err := run(&bytes.Buffer{}, "nosuch"); err == nil {
		t.Fatal("an unknown table was accepted")
	}
}
