// Binary network snapshots (.simx): the warm-start half of the ingest
// pipeline. Parsing a chip-scale .sim file costs tokenizing, symbol
// interning and graph construction; a snapshot is the finished graph in
// a flat, versioned, checksummed encoding (simx2.go documents the layout)
// that loads as a memory-mapped view or with little more than one
// allocation per node and transistor. Snapshots are a cache, never a
// source of truth: every snapshot records the SHA-256 of the text it was
// built from plus the technology name, and loaders reject (and callers
// re-parse) on any mismatch — wrong hash, wrong tech, wrong version,
// corrupt payload.
package netlist

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/tech"
)

const snapshotMagic = "SIMX"

// maxSnapshotCount bounds the node/transistor counts a reader will
// trust before allocating — a corrupt header must not ask for terabytes.
const maxSnapshotCount = 1 << 28

// ReadSnapshot heap-decodes a .simx snapshot from r into a fresh Network
// in technology p, returning the network and the source hash recorded at
// write time. It fails on bad magic, any version but SnapshotVersion
// (a file from an older writer is a version miss), checksum mismatch,
// truncated payload, or a technology name different from p.Name — all
// of which mean "re-parse the source", not "the file is usable anyway".
func ReadSnapshot(r io.Reader, p *tech.Params) (*Network, [32]byte, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, [32]byte{}, fmt.Errorf("simx: %w", err)
	}
	v, err := parseV2(data)
	if err != nil {
		return nil, [32]byte{}, err
	}
	if err := v.verifyPayload(); err != nil {
		return nil, [32]byte{}, err
	}
	return buildV2(v, p, false)
}

// readAllSized reads r to EOF like io.ReadAll, but pre-sizes the buffer
// when the reader can report its length (bytes.Reader via Len, os.File
// via Stat) — the growth-chain copies of a blind ReadAll are a large
// fraction of a warm load, and both sized cases cover every production
// caller.
func readAllSized(r io.Reader) ([]byte, error) {
	size := -1
	switch rr := r.(type) {
	case interface{ Len() int }:
		size = rr.Len()
	case *os.File:
		if st, err := rr.Stat(); err == nil && st.Mode().IsRegular() {
			if s := st.Size(); 0 <= s && s < int64(math.MaxInt32) {
				size = int(s)
			}
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	data := make([]byte, size)
	n, err := io.ReadFull(r, data)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return data[:n], nil
	}
	if err != nil {
		return nil, err
	}
	// The source may hold more than the hint (e.g. a file grown between
	// Stat and read); drain the remainder the slow way.
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return append(data, rest...), nil
}
