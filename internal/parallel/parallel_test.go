package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	var hits [100]int32
	if err := ForEach(100, 8, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachZeroAndDefaults(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := int32(0)
	if err := ForEach(3, 0, func(int) error { atomic.AddInt32(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran %d", ran)
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	e3, e7 := errors.New("three"), errors.New("seven")
	err := ForEach(10, 4, func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

func TestForEachWorkersExceedN(t *testing.T) {
	// workers > n must clamp to n: every index still runs exactly once and
	// the call terminates (no goroutine waits on a never-filled channel).
	var hits [3]int32
	if err := ForEach(3, 64, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachPanicNamesIndexAndLosesToEarlierError(t *testing.T) {
	// A recovered panic surfaces as an error naming the index...
	err := ForEach(5, 8, func(i int) error {
		if i == 4 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 4") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic error %v does not name task 4", err)
	}
	// ...but first-error-by-index order still holds when an earlier index
	// returned a plain error.
	e1 := errors.New("one")
	err = ForEach(5, 8, func(i int) error {
		switch i {
		case 1:
			return e1
		case 3:
			panic("later")
		}
		return nil
	})
	if err != e1 {
		t.Fatalf("got %v, want the lower-index plain error", err)
	}
}

func TestMapChunkedCoversDisjointRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{100, 7}, {100, 100}, {100, 1}, {3, 64}, {1, 4}, {0, 4}, {5, 0},
	} {
		var hits []int32
		if tc.n > 0 {
			hits = make([]int32, tc.n)
		}
		var chunks int32
		if err := MapChunked(tc.n, tc.workers, func(lo, hi int) error {
			atomic.AddInt32(&chunks, 1)
			if lo >= hi {
				t.Errorf("n=%d workers=%d: empty chunk [%d,%d)", tc.n, tc.workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d covered %d times", tc.n, tc.workers, i, h)
			}
		}
		if want := effectiveChunks(tc.n, tc.workers); int(chunks) != want {
			t.Fatalf("n=%d workers=%d: %d chunks, want %d", tc.n, tc.workers, chunks, want)
		}
	}
}

func effectiveChunks(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

func TestMapChunkedPanicAndErrorOrder(t *testing.T) {
	err := MapChunked(10, 5, func(lo, hi int) error {
		if lo >= 4 && 4 < hi {
			panic("chunk boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "chunk boom") {
		t.Fatalf("chunk panic not surfaced: %v", err)
	}
	eA, eB := errors.New("a"), errors.New("b")
	err = MapChunked(10, 5, func(lo, hi int) error {
		switch lo {
		case 2:
			return eA
		case 8:
			return eB
		}
		return nil
	})
	if err != eA {
		t.Fatalf("got %v, want the lowest-range error", err)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	err := ForEach(5, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

func TestMapOrders(t *testing.T) {
	out, err := Map(20, 5, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, err := Map(3, 2, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("x")
		}
		return 0, nil
	}); err == nil {
		t.Fatal("error swallowed")
	}
}
