package netlist

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tech"
)

// TestSnapshotRoundTripProperty: for a population of random networks,
// snapshot encode → decode reproduces the network exactly — structure,
// indexes, adjacency order — and the decoded network re-serializes to
// the same .sim bytes as the original.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for seed := uint64(0); seed < 40; seed++ {
			nw := randomNetwork(seed, p)
			hash := sha256.Sum256([]byte(nw.Name))
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, nw, hash); err != nil {
				t.Fatalf("seed %d: write: %v", seed, err)
			}
			got, gotHash, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), p)
			if err != nil {
				t.Fatalf("seed %d: read: %v", seed, err)
			}
			if gotHash != hash {
				t.Fatalf("seed %d: source hash mangled", seed)
			}
			if derr := DiffNetworks(nw, got); derr != nil {
				t.Fatalf("seed %d: %v", seed, derr)
			}
			var a, b strings.Builder
			if err := WriteSim(&a, nw); err != nil {
				t.Fatal(err)
			}
			if err := WriteSim(&b, got); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("seed %d: WriteSim differs after snapshot round trip", seed)
			}
		}
	}
}

// TestSnapshotParsedRoundTrip: parse → snapshot → load → WriteSim is
// byte-identical to parse → WriteSim, for a real parsed netlist
// (exercises rails, aliases resolved away, directives, wire resistors).
func TestSnapshotParsedRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	nw, err := ReadSimParallel("sample", p, strings.NewReader(sampleSim), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, sha256.Sum256([]byte(sampleSim))); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	if derr := DiffNetworks(nw, got); derr != nil {
		t.Fatal(derr)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("loaded snapshot fails Check: %v", err)
	}
}

// TestSnapshotRejectsCorruption: every single-byte flip in a valid
// snapshot must produce an error, never a silently different network.
// (The CRC catches payload damage; header damage trips magic/version.)
func TestSnapshotRejectsCorruption(t *testing.T) {
	p := tech.NMOS4()
	nw := randomNetwork(7, p)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, [32]byte{1}); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := bytes.Clone(orig)
		mut[i] ^= 0x40
		got, _, err := ReadSnapshot(bytes.NewReader(mut), p)
		if err == nil {
			// A flip inside the CRC field itself can only fail; a flip
			// that decodes must at minimum not be structurally identical
			// — which the CRC rules out entirely.
			t.Fatalf("byte %d: corrupted snapshot accepted (network %v)", i, got.Stats())
		}
	}
	// Truncations must also fail cleanly.
	for _, cut := range []int{0, 3, 11, 12, len(orig) / 2, len(orig) - 1} {
		if _, _, err := ReadSnapshot(bytes.NewReader(orig[:cut]), p); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected too (CRC covers only the payload it
	// claims, so the check is explicit).
	if _, _, err := ReadSnapshot(bytes.NewReader(append(bytes.Clone(orig), 0)), p); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotTechMismatch: a snapshot taken in one technology must not
// load into another.
func TestSnapshotTechMismatch(t *testing.T) {
	nw := randomNetwork(3, tech.NMOS4())
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, [32]byte{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), tech.CMOS3()); err == nil {
		t.Fatal("cross-technology snapshot accepted")
	}
}

// TestLoadSimFile exercises the cache protocol end to end: cold miss
// parses and writes the snapshot, warm hit skips parsing, and editing
// the source invalidates the cache.
func TestLoadSimFile(t *testing.T) {
	p := tech.NMOS4()
	dir := t.TempDir()
	simPath := filepath.Join(dir, "sample.sim")
	snapPath := filepath.Join(dir, "sample.simx")
	if err := os.WriteFile(simPath, []byte(sampleSim), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := LoadOptions{Workers: 2, Snapshot: snapPath}

	cold, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache() || res.Source != SourceParse {
		t.Fatalf("cold load claimed a cache hit (source %q)", res.Source)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("cold load did not write snapshot: %v", err)
	}

	warm, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache() {
		t.Fatal("warm load missed the snapshot")
	}
	if mmapSupported && (res.Source != SourceMmap || res.Mapped == nil) {
		t.Fatalf("warm load source %q, want mmap with a live mapping", res.Source)
	}
	if derr := DiffNetworks(cold, warm); derr != nil {
		t.Fatalf("warm network differs: %v", derr)
	}

	// Append a record: content hash changes, snapshot must be ignored
	// and rewritten.
	if err := os.WriteFile(simPath, []byte(sampleSim+"N extra 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edited, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache() {
		t.Fatal("stale snapshot served after source edit")
	}
	if edited.Lookup("extra") == nil {
		t.Fatal("edited source not reparsed")
	}
	// And the rewritten snapshot now reflects the edit.
	again, res, err := LoadSimFile("sample", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache() || again.Lookup("extra") == nil {
		t.Fatalf("snapshot not refreshed after edit (source %q)", res.Source)
	}

	// The name is a caller-chosen label outside the content hash: a hit
	// under a different name is served but relabeled, never mislabeled.
	renamed, res, err := LoadSimFile("other", simPath, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache() || renamed.Name != "other" {
		t.Fatalf("renamed load: source=%q name=%q, want hit under name \"other\"", res.Source, renamed.Name)
	}

	// NoMmap forces the heap decoder even when a fresh v2 file exists.
	heap, res, err := LoadSimFile("sample", simPath, p,
		LoadOptions{Workers: 2, Snapshot: snapPath, NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceSnapshot || res.Mapped != nil {
		t.Fatalf("NoMmap load source %q, want %q with no mapping", res.Source, SourceSnapshot)
	}
	if derr := DiffNetworks(again, heap); derr != nil {
		t.Fatalf("heap-decoded network differs from mapped: %v", derr)
	}

	// Disabled cache: parse every time, never touch the snapshot file.
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, res, err = LoadSimFile("sample", simPath, p, LoadOptions{}); err != nil || res.FromCache() {
		t.Fatalf("uncached load: source=%q err=%v", res.Source, err)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatal("uncached load wrote a snapshot")
	}
}
