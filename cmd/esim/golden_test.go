package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/tech"
)

// update rewrites the golden files instead of diffing against them:
//
//	go test ./cmd/esim -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden output files")

const testdataPath = "../../testdata/"

// TestGoldenScripts pins the exact simulator transcript — settle sweep
// counts, watch-list ordering, dump format and oscillation annotations —
// for scripted sessions over the repository netlists.
// loadTestdataSim parses one of the repository netlists for a golden run.
func loadTestdataSim(t *testing.T, sim string) *netlist.Network {
	t.Helper()
	params := tech.NMOS4()
	if strings.Contains(sim, "cmos") {
		params = tech.CMOS3()
	}
	f, err := os.Open(testdataPath + sim)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nw, err := netlist.ReadSimParallel(sim, params, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// diffGolden applies the -update flow: rewrite the golden when asked,
// diff against it otherwise.
func diffGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, got)
	}
}

func TestGoldenScripts(t *testing.T) {
	cases := []struct {
		name   string
		sim    string
		script string
	}{
		{"dlatch-session", "dlatch.sim",
			// Write a 1, latch it, overwrite with 0, read back.
			"h wr d\ns\ncheck q=1 out=1\nl wr\ns\nl d\ns\ncheck q=1 out=1\nh wr\ns\ncheck q=0 out=0\nd\n"},
		{"dlatch-undriven", "dlatch.sim",
			// Release the write line: the latch keeps its value; an
			// undriven data input leaves the output unknown on write.
			"h wr d\ns\nx d\ns\nw q qb\ns\nd\n"},
		{"mux2-cmos", "mux2-cmos.sim",
			"h a\nl b sel\ns\nh sel\ns\nd\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := loadTestdataSim(t, tc.sim)
			var out strings.Builder
			if err := run(nw, strings.NewReader(tc.script), &out); err != nil {
				t.Fatalf("%v\noutput:\n%s", err, out.String())
			}
			diffGolden(t, "testdata/golden/"+tc.name+".txt", out.String())
		})
	}
}

// TestGoldenVectors pins the -vectors batch-mode transcript — column
// headers, per-vector watch values, oscillation annotations and the sweep
// summary — over the lattice showcase netlists: a clocked latch, a
// precharged bus, and a ratioed-inverter/pass-transistor tap.
func TestGoldenVectors(t *testing.T) {
	cases := []struct {
		name    string
		sim     string
		vectors string
	}{
		{"dlatch-vectors", "dlatch.sim",
			// Columns wr d: write both values, then leave the latch
			// unwritten or the data unknown — from power-on state both
			// leave the output unknown.
			"inputs wr d\nwatch q out\n11\n10\n01\nX1\n1X\n"},
		{"precharged-bus-vectors", "precharged-bus.sim",
			// Columns prech en0 d0 en1 d1: precharge high, discharge
			// through either stack, fight precharge against a stack,
			// float the bus, and a maybe-on precharge against a
			// definite pulldown.
			"inputs prech en0 d0 en1 d1\nwatch bus out\n" +
				"10X0X\n01100\n00011\n11100\n00X0X\nX1100\n"},
		{"ratioed-inv-vectors", "ratioed-inv.sim",
			// Columns a pass: the ratioed fight resolves through the
			// depletion pullup (G2) vs enhancement pulldown (G1); the
			// pass tap floats to X when its gate is low or unknown.
			"01\n11\nX1\n10\n1X\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := loadTestdataSim(t, tc.sim)
			var out strings.Builder
			if err := runVectors(nw, strings.NewReader(tc.vectors), &out); err != nil {
				t.Fatalf("%v\noutput:\n%s", err, out.String())
			}
			diffGolden(t, "testdata/golden/"+tc.name+".txt", out.String())
		})
	}
}
