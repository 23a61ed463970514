package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalisation(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3, 100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want cap at item count", got)
	}
	if got := Workers(8, 0); got != 8 {
		t.Fatalf("Workers(8, 0) = %d, want uncapped when n <= 0", got)
	}
	if got := Workers(1, 100); got != 1 {
		t.Fatalf("Workers(1, 100) = %d", got)
	}
}

func TestMapOrderedAndComplete(t *testing.T) {
	items := make([]int, 257) // larger than any worker count, odd size
	for i := range items {
		items[i] = i * 3
	}
	square := func(i int, v int) int64 { return int64(v)*int64(v) + int64(i) }
	serial := Map(1, items, square)
	for _, w := range []int{2, 4, 8, 33} {
		got := Map(w, items, square)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, got[i], serial[i])
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, nil, func(int, int) int { return 1 }); len(got) != 0 {
		t.Fatalf("Map over nil returned %d results", len(got))
	}
}

func TestMapWorkersIDsInRange(t *testing.T) {
	const workers = 4
	items := make([]struct{}, 100)
	ids := Map(1, items, func(int, struct{}) int { return 0 }) // warm the type
	_ = ids
	got := MapWorkers(workers, items, func(worker, i int, _ struct{}) int { return worker })
	for i, w := range got {
		if w < 0 || w >= workers {
			t.Fatalf("item %d ran on worker %d, want [0, %d)", i, w, workers)
		}
	}
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	const n = 500
	var hits [n]int32
	ForEach(8, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	// n <= 0 is a no-op, not a panic.
	ForEach(8, 0, func(int) { t.Fatal("fn called for n=0") })
}
