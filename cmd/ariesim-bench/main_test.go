package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCountTablesMatchGolden holds the two tables that are pure lock counts
// — ROADMAP's "must not move" pair — to the copies under testdata/, which
// were generated at the commit before the locking policy moved into
// core/protocol.go. A change that means to move a count regenerates them:
//
//	go run ./cmd/ariesim-bench -table fig2 > cmd/ariesim-bench/testdata/fig2.golden
func TestCountTablesMatchGolden(t *testing.T) {
	for _, table := range []string{"fig2", "lockcounts"} {
		t.Run(table, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", table+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, table); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("-table %s moved:\n%s\nwant:\n%s", table, got.Bytes(), want)
			}
		})
	}
	if err := run(&bytes.Buffer{}, "nosuch"); err == nil {
		t.Fatal("an unknown table was accepted")
	}
}
