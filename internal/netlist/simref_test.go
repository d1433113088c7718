package netlist

// The serial .sim reference parser and its unsharded interner. Production
// ingest goes through the chunked ReadSimParallel; this straight-line
// scanner is the independent implementation the differential tests and
// FuzzReadSim compare it against, byte for byte and error for error.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/tech"
)

// Interner deduplicates strings for the reference parser. The zero value
// is not ready; use NewInterner. Not safe for concurrent use.
type Interner struct {
	m map[string]string
}

// NewInterner creates an interner with room for n distinct symbols.
func NewInterner(n int) *Interner {
	return &Interner{m: make(map[string]string, n)}
}

// Intern returns the canonical copy of s, allocating it on first sight.
// The lookup itself never allocates; the canonical copy is cloned so it
// does not pin whatever larger buffer s was sliced from (a scanner line,
// a parser chunk).
func (in *Interner) Intern(s string) string {
	if c, ok := in.m[s]; ok {
		return c
	}
	c := strings.Clone(s)
	in.m[c] = c
	return c
}

// Len returns the number of distinct symbols interned.
func (in *Interner) Len() int { return len(in.m) }

// ReadSim is the serial reference parser: a single-threaded line scanner
// over the .sim format, kept as the oracle FuzzReadSim and the
// differential tests hold ReadSimParallel to. It parses r into a new
// Network named name, using technology p for defaults, and returns the
// network or the first syntax error, annotated with a line number.
func ReadSim(name string, p *tech.Params, r io.Reader) (*Network, error) {
	nw := New(name, p)
	scale := 1.0 // units → centimicrons
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxSimLine)
	lineno := 0
	aliases := make(map[string]string)
	// One canonical allocation per distinct symbol: node names, alias
	// table entries and directive operands all share it, instead of each
	// mention pinning its scanner line.
	itn := NewInterner(256)

	resolve := func(nm string) (*Node, error) {
		final, ok := followAliases(aliases, nm)
		if !ok {
			return nil, fmt.Errorf("sim %s:%d: alias cycle resolving %q", name, lineno, nm)
		}
		return nw.Node(itn.Intern(final)), nil
	}

	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		key := fields[0]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("sim %s:%d: %s", name, lineno, fmt.Sprintf(format, args...))
		}
		switch key {
		case "|":
			// Header or comment. Recognize "| units: N ..." to set scale.
			for i := 1; i < len(fields)-1; i++ {
				if fields[i] == "units:" {
					u, err := strconv.ParseFloat(fields[i+1], 64)
					if err != nil || u <= 0 {
						return nil, fail("bad units value %q", fields[i+1])
					}
					scale = u
				}
			}
		case "e", "n", "d", "p":
			if len(fields) < 4 {
				return nil, fail("transistor line needs at least 3 node names")
			}
			var d tech.Device
			switch key {
			case "e", "n":
				d = tech.NEnh
			case "d":
				d = tech.NDep
			case "p":
				if !p.HasPChannel() {
					return nil, fail("p-channel transistor in technology %s", p.Name)
				}
				d = tech.PEnh
			}
			g, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			a, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			b, err := resolve(fields[3])
			if err != nil {
				return nil, err
			}
			l, w := p.MinL, p.MinW
			if len(fields) >= 6 {
				lv, err1 := strconv.ParseFloat(fields[4], 64)
				wv, err2 := strconv.ParseFloat(fields[5], 64)
				if err1 != nil || err2 != nil {
					return nil, fail("bad geometry %q %q", fields[4], fields[5])
				}
				if lv <= 0 || wv <= 0 {
					return nil, fail("non-positive geometry %g x %g", lv, wv)
				}
				l = lv * scale * centimicron
				w = wv * scale * centimicron
			}
			nw.AddTrans(d, g, a, b, w, l)
		case "r":
			if len(fields) < 4 {
				return nil, fail("resistor line needs two nodes and a value")
			}
			rv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || rv <= 0 {
				return nil, fail("bad resistance %q", fields[3])
			}
			a, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			b, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			nw.AddResistor(a, b, rv)
		case "C", "c":
			if len(fields) < 4 {
				return nil, fail("capacitor line needs two nodes and a value")
			}
			cv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fail("bad capacitance %q", fields[3])
			}
			if cv < 0 {
				return nil, fail("negative capacitance %g", cv)
			}
			a, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			b, err := resolve(fields[2])
			if err != nil {
				return nil, err
			}
			c := cv * femto
			// Capacitance to a rail is pure node load; between two
			// signal nodes, split it (switch-level tools do not model
			// coupling).
			switch {
			case a.IsRail() && b.IsRail():
				// Rail-to-rail decoupling: irrelevant to timing.
			case a.IsRail():
				nw.AddCap(b, c)
			case b.IsRail():
				nw.AddCap(a, c)
			default:
				nw.AddCap(a, c/2)
				nw.AddCap(b, c/2)
			}
		case "N":
			if len(fields) < 3 {
				return nil, fail("node capacitance line needs a node and a value")
			}
			cv, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return nil, fail("bad capacitance %q", fields[len(fields)-1])
			}
			n, err := resolve(fields[1])
			if err != nil {
				return nil, err
			}
			nw.AddCap(n, cv*femto)
		case "=":
			if len(fields) < 3 {
				return nil, fail("alias line needs two names")
			}
			// "= canonical alias": make alias refer to canonical.
			canon, alias := fields[1], fields[2]
			if alias == canon {
				break
			}
			aliases[itn.Intern(alias)] = itn.Intern(canon)
		case "@":
			if len(fields) < 2 {
				return nil, fail("directive line needs a keyword")
			}
			switch fields[1] {
			case "in":
				for _, nm := range fields[2:] {
					n, err := resolve(nm)
					if err != nil {
						return nil, err
					}
					nw.MarkInput(n)
				}
			case "out":
				for _, nm := range fields[2:] {
					n, err := resolve(nm)
					if err != nil {
						return nil, err
					}
					nw.MarkOutput(n)
				}
			case "precharged":
				for _, nm := range fields[2:] {
					n, err := resolve(nm)
					if err != nil {
						return nil, err
					}
					n.Precharged = true
				}
			case "flow":
				if len(fields) < 4 {
					return nil, fail("flow directive needs a direction and a transistor index")
				}
				idx, err := strconv.Atoi(fields[3])
				if err != nil || idx < 0 || idx >= len(nw.Trans) {
					return nil, fail("bad transistor index %q", fields[3])
				}
				switch fields[2] {
				case "a>b":
					nw.Trans[idx].Flow = FlowAB
				case "b>a":
					nw.Trans[idx].Flow = FlowBA
				case "off":
					nw.Trans[idx].Flow = FlowOff
				case "both":
					nw.Trans[idx].Flow = FlowBoth
				default:
					return nil, fail("unknown flow direction %q", fields[2])
				}
			case "inst":
				if len(fields) < 5 {
					return nil, fail("inst directive needs a path and a transistor range")
				}
				lo, err1 := strconv.Atoi(fields[3])
				hi, err2 := strconv.Atoi(fields[4])
				if err1 != nil || err2 != nil || lo < 0 || hi < lo || hi > len(nw.Trans) {
					return nil, fail("bad instance range %q %q", fields[3], fields[4])
				}
				nw.Instances = append(nw.Instances, Instance{
					Path: itn.Intern(fields[2]), TransLo: lo, TransHi: hi,
				})
			default:
				return nil, fail("unknown directive %q", fields[1])
			}
		default:
			return nil, fail("unknown record type %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sim %s: %w", name, err)
	}
	return nw, nil
}
