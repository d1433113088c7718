// Instance annotation coverage: the @ inst .sim directive (serial and
// parallel parsers, identical errors), the optional v2 snapshot sections
// (round trip, byte-compatibility for instance-free files, corruption),
// the v1 format's deliberate lossiness, and Import's instance recording.
package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/tech"
)

const instSampleSim = `| units: 100 tech: nmos inst-sample
e in mid GND 2 2
d mid Vdd mid 8 2
e mid out GND 2 2
d out Vdd out 8 2
@ in in
@ out out
@ inst inv0 0 2
@ inst inv1 2 4
`

// instNetwork returns a checked network carrying instance annotations.
func instNetwork(t *testing.T, p *tech.Params) *Network {
	t.Helper()
	nw, err := ReadSimParallel("inst", p, strings.NewReader(instSampleSim), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestReadSimInstances(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	want := []Instance{{"inv0", 0, 2}, {"inv1", 2, 4}}
	if len(nw.Instances) != len(want) {
		t.Fatalf("got %d instances, want %d", len(nw.Instances), len(want))
	}
	for i, w := range want {
		if nw.Instances[i] != w {
			t.Errorf("instance %d: got %+v, want %+v", i, nw.Instances[i], w)
		}
	}
}

// TestSimInstanceRoundTrip: WriteSim emits @ inst lines that ReadSim and
// ReadSimParallel both reproduce exactly, at every chunking.
func TestSimInstanceRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	var sb strings.Builder
	if err := WriteSim(&sb, nw); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	serial, err := ReadSim("back", p, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Instances) != 2 || serial.Instances[0] != nw.Instances[0] || serial.Instances[1] != nw.Instances[1] {
		t.Fatalf("serial round trip mangled instances: %+v", serial.Instances)
	}
	for _, workers := range []int{1, 2, 4} {
		par, err := readSimChunked("back", p, strings.NewReader(text), workers, 1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if derr := DiffNetworks(serial, par); derr != nil {
			t.Fatalf("workers=%d: %v", workers, derr)
		}
	}
	clone := nw.Clone()
	if derr := DiffNetworks(nw, clone); derr != nil {
		t.Fatalf("clone dropped instances: %v", derr)
	}
}

// TestSimInstanceErrors pins the parser's rejection of malformed @ inst
// directives — and that the parallel parser reports the identical error
// at every chunking, including the deferred upper-bound check.
func TestSimInstanceErrors(t *testing.T) {
	p := tech.NMOS4()
	cases := []struct {
		name, text string
	}{
		{"missing range", "e a b GND\n@ inst x 0\n"},
		{"bad lo", "e a b GND\n@ inst x q 1\n"},
		{"bad hi", "e a b GND\n@ inst x 0 q\n"},
		{"negative lo", "e a b GND\n@ inst x -1 1\n"},
		{"inverted range", "e a b GND\n@ inst x 1 0\n"},
		{"range past count", "e a b GND\n@ inst x 0 2\n"},
	}
	for _, tc := range cases {
		_, serr := ReadSim("bad", p, strings.NewReader(tc.text))
		if serr == nil {
			t.Errorf("%s: serial parser accepted %q", tc.name, tc.text)
			continue
		}
		for _, workers := range []int{1, 2, 4} {
			_, perr := readSimChunked("bad", p, strings.NewReader(tc.text), workers, 1)
			if perr == nil || perr.Error() != serr.Error() {
				t.Errorf("%s workers=%d: got %v, want %v", tc.name, workers, perr, serr)
			}
		}
	}
}

// TestSnapshotV2InstanceRoundTrip: instances survive the v2 snapshot
// through both the heap decoder and the mapped loader.
func TestSnapshotV2InstanceRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	hash := sha256.Sum256([]byte(instSampleSim))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, hash); err != nil {
		t.Fatal(err)
	}
	got, gotHash, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != hash {
		t.Fatal("hash mangled")
	}
	if derr := DiffNetworks(nw, got); derr != nil {
		t.Fatal(derr)
	}
	if !MmapSupported {
		t.Skip("no mmap on this platform")
	}
	m, err := OpenMapped(writeTemp(t, buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if derr := DiffNetworks(nw, m.Net); derr != nil {
		t.Fatal(derr)
	}
}

// TestSnapshotV2InstanceFreeBytes: a network without instances must write
// exactly the ten fixed sections — the instance sections may not appear,
// so instance-free files stay byte-compatible with earlier readers.
func TestSnapshotV2InstanceFreeBytes(t *testing.T) {
	p := tech.NMOS4()
	data, _, _ := sampleV2Bytes(t, p)
	count := binary.LittleEndian.Uint32(data[12:16])
	if count != 10 {
		t.Fatalf("instance-free file has %d sections, want 10", count)
	}
	for i := 0; i < int(count); i++ {
		id := binary.LittleEndian.Uint32(data[v2HeaderSize+i*v2SectionSize:])
		if id == secInst || id == secInstPath {
			t.Fatalf("instance-free file emitted section %d", id)
		}
	}
}

// instSectionEntry locates the section-table entry for id in a v2 image.
func instSectionEntry(t *testing.T, b []byte, id uint32) []byte {
	t.Helper()
	count := binary.LittleEndian.Uint32(b[12:16])
	for i := 0; i < int(count); i++ {
		ent := b[v2HeaderSize+i*v2SectionSize:][:v2SectionSize]
		if binary.LittleEndian.Uint32(ent[0:4]) == id {
			return ent
		}
	}
	t.Fatalf("section %d not in table", id)
	return nil
}

// TestSnapshotV2InstanceCorruption: every malformed-instance-section
// class the decoder must reject, with CRCs refreshed so the targeted
// bounds check — not the checksum — does the rejecting.
func TestSnapshotV2InstanceCorruption(t *testing.T) {
	p := tech.NMOS4()
	nw := instNetwork(t, p)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, sha256.Sum256([]byte(instSampleSim))); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	mutate := func(name string, f func(b []byte)) {
		b := bytes.Clone(data)
		f(b)
		refreshV2CRCs(b)
		if _, _, err := ReadSnapshot(bytes.NewReader(b), p); err == nil {
			t.Errorf("%s: heap load accepted corrupt instance section", name)
		} else if MmapSupported {
			if _, merr := OpenMapped(writeTemp(t, b), p); merr == nil {
				t.Errorf("%s: mapped load accepted corrupt instance section", name)
			}
		}
	}

	instOff := func(b []byte) int {
		return int(binary.LittleEndian.Uint64(instSectionEntry(t, b, secInst)[8:16]))
	}
	mutate("range past transistor count", func(b []byte) {
		binary.LittleEndian.PutUint32(b[instOff(b)+4:], uint32(len(nw.Trans)+1))
	})
	mutate("inverted transistor range", func(b []byte) {
		r := b[instOff(b):]
		binary.LittleEndian.PutUint32(r[0:4], 3)
		binary.LittleEndian.PutUint32(r[4:8], 1)
	})
	mutate("path end past payload", func(b []byte) {
		binary.LittleEndian.PutUint32(b[instOff(b)+12:], 1<<20)
	})
	mutate("inverted path range", func(b []byte) {
		r := b[instOff(b):]
		binary.LittleEndian.PutUint32(r[8:12], 4)
		binary.LittleEndian.PutUint32(r[12:16], 1)
	})
	mutate("ragged record size", func(b []byte) {
		ent := instSectionEntry(t, b, secInst)
		length := binary.LittleEndian.Uint64(ent[16:24])
		binary.LittleEndian.PutUint64(ent[16:24], length-1)
	})
	mutate("missing path section", func(b []byte) {
		// Retag instPath as an unknown id: PathEnd then exceeds the
		// (now empty) path payload.
		ent := instSectionEntry(t, b, secInstPath)
		binary.LittleEndian.PutUint32(ent[0:4], 63)
	})

	// Truncating the file anywhere in the new sections must still fail
	// cleanly (fileSize/CRC guard the tail like every other section).
	for cut := instOff(data); cut < len(data); cut += 3 {
		if _, _, err := ReadSnapshot(bytes.NewReader(data[:cut]), p); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestImportRecordsInstances: each Import call stamps one instance per
// nested child (rebased, path-prefixed) plus one covering the whole
// import, children before parents, and ranges that Check accepts.
func TestImportRecordsInstances(t *testing.T) {
	p := tech.NMOS4()
	leaf := New("leaf", p)
	in, out := leaf.Node("a"), leaf.Node("z")
	leaf.MarkInput(in)
	leaf.AddTrans(tech.NEnh, in, out, leaf.GND(), 4e-6, 2e-6)
	leaf.AddTrans(tech.NDep, out, out, leaf.Vdd(), 2e-6, 8e-6)

	mid := New("mid", p)
	if err := mid.Import(leaf, "u0/", nil); err != nil {
		t.Fatal(err)
	}
	if err := mid.Import(leaf, "u1/", nil); err != nil {
		t.Fatal(err)
	}

	top := New("top", p)
	if err := top.Import(mid, "m/", nil); err != nil {
		t.Fatal(err)
	}
	want := []Instance{
		{"m/u0/", 0, 2},
		{"m/u1/", 2, 4},
		{"m/", 0, 4},
	}
	if len(top.Instances) != len(want) {
		t.Fatalf("got %d instances %+v, want %d", len(top.Instances), top.Instances, len(want))
	}
	for i, w := range want {
		if top.Instances[i] != w {
			t.Errorf("instance %d: got %+v, want %+v", i, top.Instances[i], w)
		}
	}
	if err := top.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsBadInstances: Check validates the instance table.
func TestCheckRejectsBadInstances(t *testing.T) {
	p := tech.NMOS4()
	for _, tc := range []struct {
		name string
		inst Instance
	}{
		{"empty path", Instance{"", 0, 1}},
		{"negative lo", Instance{"x", -1, 1}},
		{"inverted", Instance{"x", 2, 1}},
		{"past count", Instance{"x", 0, 99}},
	} {
		nw := instNetwork(t, p)
		nw.Instances = append(nw.Instances, tc.inst)
		if err := nw.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", tc.name, tc.inst)
		}
	}
}
