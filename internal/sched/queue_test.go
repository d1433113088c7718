package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// popAll drains the queue and checks strict ascending order.
func popAll(t *testing.T, q *Queue) []Item {
	t.Helper()
	var out []Item
	for q.Len() > 0 {
		it := q.Pop()
		if len(out) > 0 {
			prev := out[len(out)-1]
			if Less(it, prev) {
				t.Fatalf("pop order violated: %v after %v", it, prev)
			}
		}
		out = append(out, it)
	}
	return out
}

func TestQueueOrdersRandomPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	var ref []Item
	for i := 0; i < 5000; i++ {
		it := Item{
			T:    float64(rng.Intn(50)) * 1e-10, // heavy time ties
			Node: int32(rng.Intn(64)),
			Tr:   uint8(rng.Intn(2)),
		}
		q.Push(it)
		ref = append(ref, it)
	}
	got := popAll(t, &q)
	sort.Slice(ref, func(i, j int) bool { return Less(ref[i], ref[j]) })
	if len(got) != len(ref) {
		t.Fatalf("popped %d items, pushed %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("pop %d = %v, want %v", i, got[i], ref[i])
		}
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	// Pops interleaved with pushes must still return the global minimum of
	// the current contents (checked against a sorted model).
	rng := rand.New(rand.NewSource(7))
	var q Queue
	var model []Item
	for step := 0; step < 20000; step++ {
		if q.Len() == 0 || rng.Intn(3) != 0 {
			it := Item{T: rng.Float64(), Node: int32(rng.Intn(1000)), Tr: uint8(rng.Intn(2))}
			q.Push(it)
			model = append(model, it)
			continue
		}
		got := q.Pop()
		min := 0
		for i := range model {
			if Less(model[i], model[min]) {
				min = i
			}
		}
		if got != model[min] {
			t.Fatalf("step %d: popped %v, model minimum %v", step, got, model[min])
		}
		model[min] = model[len(model)-1]
		model = model[:len(model)-1]
	}
}

// TestQueueStaleSkipProtocol exercises the analyzer's staleness discipline
// on the queue: improvements re-push the same (node, tr) with a new time,
// and the consumer treats an entry as live only when it matches the
// latest recorded arrival. Every key must be processed exactly once per
// final arrival, in strict order of those live entries.
func TestQueueStaleSkipProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nodes = 128
	var q Queue
	latest := map[[2]int32]float64{}
	for i := 0; i < 4000; i++ {
		k := [2]int32{int32(rng.Intn(nodes)), int32(rng.Intn(2))}
		tm := float64(rng.Intn(1000)) * 1e-11
		if cur, ok := latest[k]; !ok || tm > cur {
			latest[k] = tm
			q.Push(Item{T: tm, Node: k[0], Tr: uint8(k[1])})
		}
	}
	seen := map[[2]int32]bool{}
	var prev Item
	first := true
	for q.Len() > 0 {
		it := q.Pop()
		if !first && Less(it, prev) {
			t.Fatalf("order violated: %v after %v", it, prev)
		}
		prev, first = it, false
		k := [2]int32{it.Node, int32(it.Tr)}
		if it.T != latest[k] {
			continue // stale: a fresher entry exists
		}
		if seen[k] {
			t.Fatalf("key %v processed twice", k)
		}
		seen[k] = true
	}
	if len(seen) != len(latest) {
		t.Fatalf("processed %d keys, want %d", len(seen), len(latest))
	}
}

// FuzzQueueOrder fuzzes the pop-order invariant: however items are pushed
// (including duplicates and interleaved pops), pops come out in strict
// (t, node, tr) order and nothing is lost.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue
		var model []Item
		pops := 0
		for i := 0; i+2 < len(data); i += 3 {
			if data[i]&0x80 != 0 && q.Len() > 0 {
				got := q.Pop()
				min := 0
				for j := range model {
					if Less(model[j], model[min]) {
						min = j
					}
				}
				if got != model[min] {
					t.Fatalf("pop %d = %v, want %v", pops, got, model[min])
				}
				model[min] = model[len(model)-1]
				model = model[:len(model)-1]
				pops++
			}
			it := Item{
				T:    float64(data[i]&0x7f) * 0.25,
				Node: int32(data[i+1] % 32),
				Tr:   data[i+2] % 2,
			}
			q.Push(it)
			model = append(model, it)
		}
		if q.Len() != len(model) {
			t.Fatalf("queue holds %d, model %d", q.Len(), len(model))
		}
		var prev Item
		for first := true; q.Len() > 0; first = false {
			it := q.Pop()
			if !first && Less(it, prev) {
				t.Fatalf("final drain order violated: %v after %v", it, prev)
			}
			prev = it
		}
	})
}
