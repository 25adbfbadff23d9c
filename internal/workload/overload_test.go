package workload

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestDriveOverloadCountsPerClass(t *testing.T) {
	var aCalls, bCalls atomic.Int64
	errRefused := errors.New("refused")
	res := DriveOverload([]ClassLoad{
		{Name: "a", Workers: 3, Ops: 10, Do: func(_, _ int) error {
			aCalls.Add(1)
			return nil
		}},
		{Name: "b", Workers: 2, Ops: 5, Do: func(_, op int) error {
			bCalls.Add(1)
			if op%2 == 1 {
				return errRefused
			}
			return nil
		}},
	})
	a := res["a"]
	if a.Done != 30 || a.Errors != 0 {
		t.Fatalf("class a = %+v, want 30 done, 0 errors", a)
	}
	if aCalls.Load() != 30 {
		t.Fatalf("a calls = %d", aCalls.Load())
	}
	b := res["b"]
	if b.Done != 10 || b.Errors != 4 {
		t.Fatalf("class b = %+v, want 10 done, 4 errors", b)
	}
	if a.Elapsed <= 0 || a.P99 < a.P50 {
		t.Fatalf("class a timing = %+v", a)
	}
}

func TestDriveOverloadDefaults(t *testing.T) {
	var calls atomic.Int64
	res := DriveOverload([]ClassLoad{
		{Name: "d", Do: func(_, _ int) error { calls.Add(1); return nil }},
	})
	if res["d"].Done != 100 || calls.Load() != 100 {
		t.Fatalf("defaulted class = %+v with %d calls, want 100 ops", res["d"], calls.Load())
	}
}

func TestPercentileDur(t *testing.T) {
	durs := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentileDur(durs, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentileDur(durs, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentileDur(nil, 50); got != 0 {
		t.Fatalf("p50 of empty = %v, want 0", got)
	}
	if got := percentileDur([]time.Duration{7}, 99); got != 7 {
		t.Fatalf("p99 of singleton = %v, want 7", got)
	}
}

func TestGreedyAndHotKeyConstructors(t *testing.T) {
	var n atomic.Int64
	g := GreedyLoad("g", 2, 3, func() error { n.Add(1); return nil })
	res := DriveOverload([]ClassLoad{g})
	if res["g"].Done != 6 || n.Load() != 6 {
		t.Fatalf("greedy = %+v with %d calls", res["g"], n.Load())
	}
}
