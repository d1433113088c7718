package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// chipWidth is the datapath width of every chip the benchmark analyzes:
// chip:32 is the E6 chip (18,173 transistors, 10,976 nodes).
const chipWidth = 32

// chipInput is one generated netlist on disk plus the analysis
// directives it needs (the role of a Crystal command file).
type chipInput struct {
	sim     string // .sim path
	simx    string // .simx snapshot path used by the crystal execs
	simText string
	fix     map[string]string
	loop    []string
}

// makeChip writes chip:32 (tiles == 1) or the chip:32,tiles grid into
// dir. The generators are deterministic, so every seed sees the same
// netlist.
func makeChip(dir string, tiles int) (*chipInput, error) {
	p := tech.NMOS4()
	nw, err := gen.ChipGrid(p, chipWidth, tiles)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := netlist.WriteSim(&buf, nw); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("chip%d-%d", chipWidth, tiles))
	in := &chipInput{sim: base + ".sim", simx: base + ".simx", simText: buf.String()}
	in.fix, in.loop = gen.ChipGridDirectives(chipWidth, tiles)
	if err := os.WriteFile(in.sim, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return in, nil
}

// fixArg renders the fixed nodes as a crystal -fix list.
func (in *chipInput) fixArg() string {
	var kv []string
	for name, v := range in.fix {
		kv = append(kv, name+"="+v)
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// inputDir makes a fresh directory for generated inputs under the
// checkout; the caller removes it.
func inputDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "inputs-")
}
