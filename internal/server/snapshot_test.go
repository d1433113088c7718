// Warm-start cache coverage: a daemon with a snapshot directory must
// parse a given netlist exactly once across its own lifetime *and*
// across restarts, serve warm loads from the .simx cache (memory-mapped
// where the platform allows, heap-decoded otherwise) with identical
// analysis results, and fall back to parsing whenever the cache is
// stale or corrupt. Snapshot files are keyed by network identity
// (source hash + tech + name), so configs that differ only in analysis
// directives share one file and one mapped view.
package server

import (
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netlist"
)

// snapshotFiles lists the .simx entries in dir.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.simx"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// warmSource is the expected create source for a cache hit: the shared
// mmap view where the platform supports it, the heap decoder otherwise.
func warmSource() string {
	if netlist.MmapSupported {
		return "mmap"
	}
	return "snapshot"
}

func TestSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	cfg := dlatchConfig(t)

	// Cold daemon, cold cache: the load parses and persists a snapshot.
	c1 := newTestClient(t, Options{SnapshotDir: dir})
	cold := c1.create(cfg)
	if cold.Source != "parse" {
		t.Fatalf("cold load source = %q, want parse", cold.Source)
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("snapshot files after cold load: %v", files)
	}
	coldReport := c1.analyze(cold.Session, 1).Report
	m := c1.metrics()
	if m.Snapshots.Hits != 0 || m.Snapshots.Misses != 1 || m.Snapshots.Writes != 1 {
		t.Fatalf("cold metrics: %+v", m.Snapshots)
	}

	// "Restart": a fresh server over the same directory. The LRU is
	// empty (no dedup possible), so only the snapshot cache can skip the
	// parse — and it must.
	c2 := newTestClient(t, Options{SnapshotDir: dir})
	warm := c2.create(cfg)
	if warm.Source != warmSource() {
		t.Fatalf("warm load source = %q, want %q", warm.Source, warmSource())
	}
	if warm.Cached {
		t.Fatal("warm load claimed LRU dedup on a fresh server")
	}
	if warm.Nodes != cold.Nodes || warm.Transistors != cold.Transistors {
		t.Fatalf("warm network shape %d/%d differs from cold %d/%d",
			warm.Nodes, warm.Transistors, cold.Nodes, cold.Transistors)
	}
	// The analysis over the snapshot-loaded network is byte-identical.
	if warmReport := c2.analyze(warm.Session, 1).Report; warmReport != coldReport {
		t.Fatalf("warm report differs from cold:\n--- cold\n%s\n--- warm\n%s", coldReport, warmReport)
	}
	m = c2.metrics()
	if m.Snapshots.Hits != 1 || m.Snapshots.Misses != 0 || m.Snapshots.Writes != 0 {
		t.Fatalf("warm metrics: %+v", m.Snapshots)
	}

	// Same daemon, repeated POST after deleting the session: the LRU no
	// longer holds it, so this is another cache hit, not a parse.
	if st := c2.do("DELETE", "/v1/sessions/"+warm.Session, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	again := c2.create(cfg)
	if again.Source != warmSource() {
		t.Fatalf("re-create after eviction: source = %q, want %q", again.Source, warmSource())
	}

	// A config change (different fix directive) is a different LRU key
	// but the *same network*: snapshot files are keyed by network
	// identity, so this is another warm hit against the same single
	// file, not a parse.
	cfg2 := dlatchConfig(t)
	cfg2.Fix = map[string]string{"wr": "0"}
	other := c2.create(cfg2)
	if other.Source != warmSource() {
		t.Fatalf("changed config source = %q, want %q", other.Source, warmSource())
	}
	if other.Cached {
		t.Fatal("changed config claimed LRU dedup")
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("snapshot files after second config: %v (want the shared network file only)", files)
	}
	m = c2.metrics()
	if m.Snapshots.Hits != 3 || m.Snapshots.Misses != 0 || m.Snapshots.Writes != 0 {
		t.Fatalf("metrics after shared-network hit: %+v", m.Snapshots)
	}

	// A genuinely different network (different report name) gets its own
	// snapshot file.
	cfg3 := dlatchConfig(t)
	cfg3.Name = "dlatch-b"
	if resp := c2.create(cfg3); resp.Source != "parse" {
		t.Fatalf("renamed network source = %q, want parse", resp.Source)
	}
	if files := snapshotFiles(t, dir); len(files) != 2 {
		t.Fatalf("snapshot files after renamed network: %v", files)
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := dlatchConfig(t)
	c := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c.create(cfg); resp.Source != "parse" {
		t.Fatalf("cold source = %q", resp.Source)
	}
	files := snapshotFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("snapshot files: %v", files)
	}
	// Flip one payload byte: the CRC must reject it — in both the mmap
	// loader and the heap decoder — and the load must quietly parse
	// (and rewrite the snapshot).
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, Options{SnapshotDir: dir})
	resp := c2.create(cfg)
	if resp.Source != "parse" {
		t.Fatalf("corrupt snapshot served: source = %q", resp.Source)
	}
	// And the rewrite healed the cache.
	c3 := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c3.create(cfg); resp.Source != warmSource() {
		t.Fatalf("healed cache source = %q, want %q", resp.Source, warmSource())
	}
}

// TestSnapshotV1IsMiss: a cache file left by an older writer — a .simx
// whose 12-byte header carries version 1 — is a miss for -snapshot-dir
// loads, on the shared mmap path and the heap decoder alike. The create
// parses, rewrites the file in the current version, and the next daemon
// is served from the healed cache.
func TestSnapshotV1IsMiss(t *testing.T) {
	dir := t.TempDir()
	cfg := dlatchConfig(t)
	c := newTestClient(t, Options{SnapshotDir: dir})
	c.create(cfg)
	files := snapshotFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("snapshot files: %v", files)
	}
	v1 := make([]byte, 64)
	copy(v1, "SIMX")
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	binary.LittleEndian.PutUint32(v1[8:12], crc32.ChecksumIEEE(v1[12:]))
	if err := os.WriteFile(files[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c2.create(cfg); resp.Source != "parse" {
		t.Fatalf("v1 snapshot served: source = %q, want parse", resp.Source)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != netlist.SnapshotVersion {
		t.Fatalf("rewritten snapshot has version %d, want %d", v, netlist.SnapshotVersion)
	}
	c3 := newTestClient(t, Options{SnapshotDir: dir})
	if resp := c3.create(cfg); resp.Source != warmSource() {
		t.Fatalf("healed cache source = %q, want %q", resp.Source, warmSource())
	}
}

// TestSnapshotDisabled pins the default: no snapshot directory, no
// source field, no cache files.
func TestSnapshotDisabled(t *testing.T) {
	c := newTestClient(t, Options{})
	resp := c.create(dlatchConfig(t))
	if resp.Source != "" {
		t.Fatalf("source = %q with cache disabled, want empty", resp.Source)
	}
	m := c.metrics()
	if m.Snapshots.Hits != 0 || m.Snapshots.Misses != 0 || m.Snapshots.Writes != 0 {
		t.Fatalf("snapshot metrics moved with cache disabled: %+v", m.Snapshots)
	}
}
