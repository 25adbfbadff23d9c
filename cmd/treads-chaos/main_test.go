package main

import "testing"

// The replay line names every flag that shapes a seed's schedule, so
// pasting it reruns the schedule that failed.
func TestReproFlags(t *testing.T) {
	for _, tc := range []struct {
		workers, replicas int
		reshard, noAdmin  bool
		want              string
	}{
		{workers: 1, want: ""},
		{workers: 2, want: " -workers 2"},
		{workers: 1, replicas: 1, reshard: true, want: " -replicas 1 -reshard"},
		{workers: 1, replicas: 2, want: " -replicas 2"},
		{workers: 1, replicas: 2, noAdmin: true, want: " -replicas 2 -no-admin"},
		{workers: 4, replicas: 2, reshard: true, noAdmin: true, want: " -workers 4 -replicas 2 -no-admin -reshard"},
	} {
		if got := reproFlags(tc.workers, tc.replicas, tc.reshard, tc.noAdmin); got != tc.want {
			t.Errorf("reproFlags(workers=%d, replicas=%d, reshard=%v, noAdmin=%v) = %q, want %q",
				tc.workers, tc.replicas, tc.reshard, tc.noAdmin, got, tc.want)
		}
	}
}
