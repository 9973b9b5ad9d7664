package main

import "testing"

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median would have 9 samples beyond it
		{20, 50, true},
		{39, 50, true}, // p75 would have 9 beyond
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestTail(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minTail {
			t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestSamplesFor(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 75: 40, 90: 100, 99: 1000} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 8, 7, 6}
	for p, want := range map[float64]float64{0: 1, 12.5: 1, 50: 4, 75: 6, 76: 7, 100: 8} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}
