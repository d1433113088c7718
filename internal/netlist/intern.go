// String interning for the ingest pipeline. A chip-scale .sim file
// mentions each net name many times (every transistor terminal, every
// capacitor plate, every directive), and the naive parse materializes a
// fresh substring for each mention — pinning whole input chunks in the
// heap through the node-name references that survive parsing. The
// interner collapses every mention to one canonical allocation, shared by
// the merge, the alias table and the @-directive handlers, so resident
// symbol storage is proportional to the number of distinct nets, not the
// number of tokens.
package netlist

import (
	"strings"
	"sync"
)

// internShards is the lock granularity of ShardedInterner: enough shards
// that a parser worker per core rarely collides on one lock, few enough
// that the fixed footprint stays trivial.
const internShards = 32

// ShardedInterner is a concurrency-safe interner for the parallel
// parser's reconciliation phase: tokenizer workers canonicalize their
// local symbol tables against it in parallel, so the serial merge sees
// pre-canonicalized names and does no interning at all. Which worker
// interns a name first is scheduling-dependent, but the canonical copy is
// byte-equal either way — the merge's output never depends on the race.
type ShardedInterner struct {
	shards [internShards]struct {
		mu sync.Mutex
		m  map[string]string
		_  [24]byte // keep neighbouring locks off one cache line
	}
}

// NewShardedInterner creates a sharded interner with room for about n
// distinct symbols across all shards.
func NewShardedInterner(n int) *ShardedInterner {
	si := &ShardedInterner{}
	per := n/internShards + 1
	for i := range si.shards {
		si.shards[i].m = make(map[string]string, per)
	}
	return si
}

// Intern returns the canonical copy of s, cloning it on first sight.
// Safe for concurrent use.
func (si *ShardedInterner) Intern(s string) string {
	// FNV-1a; only shard selection depends on it.
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	sh := &si.shards[h%internShards]
	sh.mu.Lock()
	c, ok := sh.m[s]
	if !ok {
		c = strings.Clone(s)
		sh.m[c] = c
	}
	sh.mu.Unlock()
	return c
}

// Len returns the number of distinct symbols interned.
func (si *ShardedInterner) Len() int {
	total := 0
	for i := range si.shards {
		sh := &si.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}
