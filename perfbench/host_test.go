package main

import "testing"

func TestAdjust(t *testing.T) {
	for _, tc := range []struct {
		seconds, before, after, want float64
	}{
		{4, refKernelSeconds, refKernelSeconds, 4},         // reference speed: unchanged
		{4, 2 * refKernelSeconds, 2 * refKernelSeconds, 2}, // host at half speed
		{4, refKernelSeconds / 2, refKernelSeconds / 2, 8}, // host at twice the speed
		{3, refKernelSeconds, 2 * refKernelSeconds, 2},     // the bracket is the mean
	} {
		got := adjust(tc.seconds, hostBracket(tc.before, tc.after))
		if d := got - tc.want; d > 1e-12 || d < -1e-12 {
			t.Errorf("adjust(%v, bracket(%v, %v)) = %v, want %v", tc.seconds, tc.before, tc.after, got, tc.want)
		}
	}
}
