package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/tech"
)

// refreshV2CRCs recomputes both checksums of a v2 image in place, so
// corruption tests can mutate structure and still reach the check that
// the mutation targets (instead of tripping the CRC first).
func refreshV2CRCs(b []byte) {
	count := binary.LittleEndian.Uint32(b[12:16])
	ps := v2HeaderSize + v2SectionSize*int(count)
	binary.LittleEndian.PutUint32(b[56:60], crc32.Checksum(b[ps:], castagnoli))
	binary.LittleEndian.PutUint32(b[8:12], crc32.Checksum(b[12:ps], castagnoli))
}

func sampleV2Bytes(t *testing.T, p *tech.Params) ([]byte, *Network, [32]byte) {
	t.Helper()
	nw, err := ReadSimParallel("sample", p, strings.NewReader(sampleSim), 1)
	if err != nil {
		t.Fatal(err)
	}
	hash := sha256.Sum256([]byte(sampleSim))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, hash); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nw, hash
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.simx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotV1Heals pins what a stale version-1 cache file does: a
// .simx whose 12-byte header carries version 1 is a version miss on every
// read path (heap decoder and mapping), LoadSimFile treats it as a miss —
// re-parsing the source — and the file left behind is a current v2
// snapshot that serves the next load from the cache. The v2 header keeps
// magic and version at the v1 offsets, so readers of either version
// reject the other with a clean version error.
func TestSnapshotV1Heals(t *testing.T) {
	p := tech.NMOS4()
	v1 := make([]byte, 64)
	copy(v1, snapshotMagic)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	binary.LittleEndian.PutUint32(v1[8:12], crc32.ChecksumIEEE(v1[12:]))
	if _, _, err := ReadSnapshot(bytes.NewReader(v1), p); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("ReadSnapshot of a v1 file: err = %v, want a version error", err)
	}
	if _, err := OpenMapped(writeTemp(t, v1), p); err == nil {
		t.Fatal("OpenMapped accepted a v1 file")
	}

	dir := t.TempDir()
	simPath := filepath.Join(dir, "s.sim")
	snapPath := filepath.Join(dir, "s.simx")
	if err := os.WriteFile(simPath, []byte(sampleSim), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	nw, res, err := LoadSimFile("sample", simPath, p, LoadOptions{Snapshot: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceParse {
		t.Fatalf("v1 file served with source %q, want %q", res.Source, SourceParse)
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:4]) != snapshotMagic || binary.LittleEndian.Uint32(b[4:8]) != SnapshotVersion {
		t.Fatalf("healed file header %q/%d, want %q/%d", b[:4], binary.LittleEndian.Uint32(b[4:8]), snapshotMagic, SnapshotVersion)
	}
	warm, res, err := LoadSimFile("sample", simPath, p, LoadOptions{Snapshot: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache() {
		t.Fatalf("load after the heal: source %q, want a cache hit", res.Source)
	}
	if derr := DiffNetworks(nw, warm); derr != nil {
		t.Fatal(derr)
	}
}

// TestMappedRoundTrip: the zero-copy mapped view is structurally
// identical to the written network, its lazy name index answers
// lookups, and Close-after-discard is safe.
func TestMappedRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	data, nw, hash := sampleV2Bytes(t, p)
	m, err := OpenMapped(writeTemp(t, data), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.SourceHash != hash {
		t.Fatal("mapped source hash mangled")
	}
	if m.Size() != len(data) {
		t.Fatalf("mapped size %d, want %d", m.Size(), len(data))
	}
	if derr := DiffNetworks(nw, m.Net); derr != nil {
		t.Fatal(derr)
	}
	// Lazy index: built on first Lookup, shared thereafter.
	for _, n := range nw.Nodes {
		got := m.Net.Lookup(n.Name)
		if got == nil || got.Index != n.Index {
			t.Fatalf("mapped Lookup(%q) = %v", n.Name, got)
		}
	}
	var a, b strings.Builder
	if err := WriteSim(&a, nw); err != nil {
		t.Fatal(err)
	}
	if err := WriteSim(&b, m.Net); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteSim differs through the mapped view")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // double close is defined
		t.Fatal(err)
	}
}

// TestMappedCorruption: every corruption class the section machinery
// must reject — with the CRCs refreshed where needed so the targeted
// check, not the checksum, does the rejecting.
func TestMappedCorruption(t *testing.T) {
	p := tech.NMOS4()
	data, _, _ := sampleV2Bytes(t, p)

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(bytes.Clone(data))
		if _, err := OpenMapped(writeTemp(t, b), p); err == nil {
			t.Errorf("%s: mapped load accepted corrupt file", name)
		}
		if _, _, err := ReadSnapshot(bytes.NewReader(b), p); err == nil {
			t.Errorf("%s: heap load accepted corrupt file", name)
		}
	}

	mutate("truncated header", func(b []byte) []byte { return b[:40] })
	mutate("truncated section table", func(b []byte) []byte { return b[:v2HeaderSize+8] })
	mutate("truncated payload", func(b []byte) []byte { return b[:len(b)-8] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0) })
	mutate("payload CRC mismatch", func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	})
	mutate("header CRC mismatch", func(b []byte) []byte {
		b[16] ^= 0x40 // fileSize low byte, CRC not refreshed
		return b
	})
	mutate("misaligned section offset", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[v2HeaderSize+8:])
		binary.LittleEndian.PutUint64(b[v2HeaderSize+8:], off+1)
		refreshV2CRCs(b)
		return b
	})
	mutate("section out of bounds", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[v2HeaderSize+8:], uint64(len(b)+8))
		refreshV2CRCs(b)
		return b
	})
	mutate("section overlaps header", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[v2HeaderSize+8:], 0)
		refreshV2CRCs(b)
		return b
	})
	mutate("duplicate section", func(b []byte) []byte {
		copy(b[v2HeaderSize+v2SectionSize:], b[v2HeaderSize:v2HeaderSize+v2SectionSize])
		refreshV2CRCs(b)
		return b
	})
	mutate("missing section", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[v2HeaderSize:], 63) // retag tech as unknown id
		refreshV2CRCs(b)
		return b
	})
	mutate("implausible node count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[60:64], 1<<30)
		refreshV2CRCs(b)
		return b
	})
	mutate("wrong file size", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:24], uint64(len(b))+8)
		refreshV2CRCs(b)
		return b
	})

	// The v1 suite's exhaustive guarantee, on the mapped reader: any
	// single-byte flip anywhere in the file must be rejected.
	for off := 0; off < len(data); off++ {
		mut := bytes.Clone(data)
		mut[off] ^= 0x40
		if _, err := OpenMapped(writeTemp(t, mut), p); err == nil {
			t.Fatalf("single-byte corruption at offset %d accepted by mapped load", off)
		}
	}
}

// TestMappedConcurrentLookup: many goroutines race first Lookup on one
// shared mapped view (the lazy byName build) while others walk adjacency
// — the shape of N crystald sessions aliasing one arena mapping. Run
// under -race in the CI netlist race job.
func TestMappedConcurrentLookup(t *testing.T) {
	p := tech.NMOS4()
	data, nw, _ := sampleV2Bytes(t, p)
	m, err := OpenMapped(writeTemp(t, data), p)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(nw.Nodes))
	for i, n := range nw.Nodes {
		names[i] = n.Name
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range names {
				name := names[(i+g)%len(names)]
				n := m.Net.Lookup(name)
				if n == nil || n.Name != name {
					errs <- &os.PathError{Op: "lookup", Path: name}
					return
				}
				for _, tr := range n.Terms {
					if tr.Other(n) == nil {
						errs <- &os.PathError{Op: "adjacency", Path: name}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzSnapshotV2 fuzzes the v2 header/section decoder (heap path — the
// same parseV2/buildV2 the mmap loader runs). Decodable inputs must
// re-encode and re-decode to an identical network.
func FuzzSnapshotV2(f *testing.F) {
	p := tech.NMOS4()
	nw, err := ReadSimParallel("sample", p, strings.NewReader(sampleSim), 1)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteSnapshot(&valid, nw, sha256.Sum256([]byte(sampleSim))); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:60])
	f.Add([]byte(snapshotMagic))
	trunc := bytes.Clone(valid.Bytes()[:v2HeaderSize+v2SectionSize])
	f.Add(trunc)
	flip := bytes.Clone(valid.Bytes())
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)
	empty := New("empty", p)
	var emptyBuf bytes.Buffer
	if err := WriteSnapshot(&emptyBuf, empty, [32]byte{}); err != nil {
		f.Fatal(err)
	}
	f.Add(emptyBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, hash, err := ReadSnapshot(bytes.NewReader(data), p)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, got, hash); err != nil {
			t.Fatalf("re-encode of decoded network failed: %v", err)
		}
		again, hash2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), p)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if hash2 != hash {
			t.Fatal("source hash changed across round trip")
		}
		if derr := DiffNetworks(got, again); derr != nil {
			t.Fatal(derr)
		}
	})
}

// TestBuildV2ParallelMatchesSerial drives both buildV2 strategies — the
// fused single-P scan and the overlapped multi-P passes — over the same
// image and requires identical networks. GOMAXPROCS is forced both ways
// so the parallel path is exercised even on single-CPU hosts (where the
// race detector would otherwise never see it).
func TestBuildV2ParallelMatchesSerial(t *testing.T) {
	p := tech.NMOS4()
	nw := New("par", p)
	prev := nw.Node("in")
	nw.MarkInput(prev)
	// Well above the 1<<14-transistor threshold that separates the two
	// strategies.
	for i := 0; i < 10000; i++ {
		cur := nw.Node(fmt.Sprintf("c%d", i))
		nw.AddTrans(tech.NEnh, prev, cur, nw.GND(), 4e-6, 2e-6)
		nw.AddTrans(tech.NDep, cur, cur, nw.Vdd(), 2e-6, 8e-6)
		prev = cur
	}
	nw.MarkOutput(prev)
	hash := sha256.Sum256([]byte(nw.Name))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, hash); err != nil {
		t.Fatal(err)
	}

	decode := func() *Network {
		got, gotHash, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), p)
		if err != nil {
			t.Fatal(err)
		}
		if gotHash != hash {
			t.Fatal("source hash changed across decode")
		}
		return got
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := decode()
	runtime.GOMAXPROCS(4)
	parallel := decode()
	if err := DiffNetworks(serial, parallel); err != nil {
		t.Fatalf("parallel build differs from serial: %v", err)
	}
	if err := DiffNetworks(nw, parallel); err != nil {
		t.Fatalf("parallel build differs from source network: %v", err)
	}
}
