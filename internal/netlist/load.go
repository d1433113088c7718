// File-level ingest with snapshot caching: the one entry point the
// command-line tools use to turn a .sim path into a Network. The cache
// protocol is deliberately simple — one .simx file per .sim file, keyed
// by content hash, validated on every load:
//
//	hash := SHA-256(sim bytes)
//	snapshot exists && snapshot.hash == hash && snapshot.tech == tech
//	    → load snapshot (no parsing)
//	otherwise
//	    → parse (parallel), then rewrite the snapshot atomically
//
// Editing the .sim file, switching technologies, corrupting the
// snapshot, or bumping the format version all change or fail one of the
// checks and fall back to a parse; a stale snapshot can never be served.
package netlist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tech"
)

// LoadOptions configures LoadSimFile.
type LoadOptions struct {
	// Workers is the parser worker count: 0 = GOMAXPROCS, 1 = serial,
	// N = at most N.
	Workers int
	// Snapshot, when non-empty, is the path of the .simx cache file to
	// load from when fresh and rewrite after a parse. Empty disables
	// caching.
	Snapshot string
	// NoMmap disables the memory-mapped snapshot fast path; fresh
	// snapshots are then heap-decoded. Used by benchmarks and fallback
	// tests; production callers leave it false.
	NoMmap bool
}

// Load sources, in decreasing order of preference.
const (
	// SourceMmap: a fresh v2 snapshot served as a zero-copy mapped view.
	SourceMmap = "mmap"
	// SourceSnapshot: a fresh snapshot heap-decoded (NoMmap, or a
	// platform without mmap).
	SourceSnapshot = "snapshot"
	// SourceParse: no usable snapshot; the .sim text was parsed.
	SourceParse = "parse"
)

// LoadResult describes how LoadSimFile obtained the network.
type LoadResult struct {
	// Source is SourceMmap, SourceSnapshot or SourceParse.
	Source string
	// Mapped is the live mapping when Source is SourceMmap, else nil.
	// The caller owns its lifetime; see Mapped.Close for the rules.
	// Callers that cannot bound the network's lifetime keep it open for
	// the life of the process.
	Mapped *Mapped
}

// FromCache reports whether the parse was skipped (either cached path).
func (r LoadResult) FromCache() bool { return r.Source != SourceParse }

// LoadSimFile reads the .sim netlist at path into a checked Network
// named name, via the snapshot cache when one is configured and fresh.
// A fresh snapshot is served as a zero-copy memory-mapped view
// (res.Source == SourceMmap) where the platform supports it; mmap
// failures fall back to the heap decoder, and any snapshot failure at
// all — including a file of an older format version — falls back to a
// parse that rewrites the snapshot in the current version. The parse path runs
// Network.Check before the snapshot is written, so a snapshot hit skips
// both the parse and the structural check — a .simx file never holds a
// network that did not pass. A snapshot that fails to load for any
// reason is treated as a miss, and a snapshot write failure is returned
// as an error only after the network itself loaded — callers that only
// care about the network may ignore it, but silently losing the cache
// forever is worse than saying so.
func LoadSimFile(name, path string, p *tech.Params, opt LoadOptions) (nw *Network, res LoadResult, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, res, err
	}
	hash := sha256.Sum256(data)
	if opt.Snapshot != "" {
		if snap, res, ok := loadFreshSnapshot(opt.Snapshot, name, p, hash, opt.NoMmap); ok {
			return snap, res, nil
		}
	}
	res = LoadResult{Source: SourceParse}
	nw, err = ReadSimParallel(name, p, bytes.NewReader(data), opt.Workers)
	if err != nil {
		return nil, res, err
	}
	if err := nw.Check(); err != nil {
		return nil, res, err
	}
	if opt.Snapshot != "" {
		if werr := WriteSnapshotFile(opt.Snapshot, nw, hash); werr != nil {
			return nw, res, fmt.Errorf("writing snapshot: %w", werr)
		}
	}
	return nw, res, nil
}

// loadFreshSnapshot loads path and reports whether it matches the
// wanted source hash and technology. Any failure — missing file,
// version skew, checksum, staleness — is a cache miss. The network name
// is a caller-chosen label, not part of the structure the hash pins, so
// a hit is relabeled to the requested name; this lets a snapshot
// emitted by `benchgen -snapshot` serve `crystal -sim f.sim`, whose
// name (the file path) benchgen cannot know.
func loadFreshSnapshot(path, name string, p *tech.Params, hash [32]byte, noMmap bool) (*Network, LoadResult, bool) {
	if mmapSupported && !noMmap {
		if m, err := OpenMapped(path, p); err == nil {
			if m.SourceHash == hash {
				m.Net.Name = name
				return m.Net, LoadResult{Source: SourceMmap, Mapped: m}, true
			}
			m.Close() // stale: the network never escaped, unmapping is safe
		}
		// Any mapped-path failure falls through to the heap decoder.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadResult{}, false
	}
	defer f.Close()
	nw, gotHash, err := ReadSnapshot(f, p)
	if err != nil || gotHash != hash {
		return nil, LoadResult{}, false
	}
	nw.Name = name
	return nw, LoadResult{Source: SourceSnapshot}, true
}

// WriteSnapshotFile writes nw as a .simx snapshot at path, atomically:
// the bytes land in a temp file in the same directory and are renamed
// into place, so concurrent readers see either the old snapshot or the
// new one, never a torn write.
func WriteSnapshotFile(path string, nw *Network, sourceHash [32]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".simx-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, nw, sourceHash); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
