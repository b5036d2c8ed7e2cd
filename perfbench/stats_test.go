package main

import (
	"testing"

	"repro/internal/stats"
)

// TestGroupedPercentile: one group of outliers moves its own group's
// tail, not the reported median of group tails.
func TestGroupedPercentile(t *testing.T) {
	d := make(dist, 5*groupSize+10) // 5 groups, the remainder joins the last
	for i := range d {
		d[i] = float64(i % groupSize)
	}
	for i := 2 * groupSize; i < 3*groupSize; i++ {
		d[i] = 1e6 // a stalled stretch
	}
	g := d.groups(0.99)
	if len(g) != 5 {
		t.Fatalf("%d groups, want 5", len(g))
	}
	if g[2] != 1e6 {
		t.Errorf("stalled group p99 = %v, want 1e6", g[2])
	}
	clean := stats.Quantile(d[:groupSize], 0.99)
	if g[0] != clean || g[1] != clean || g[3] != clean {
		t.Errorf("clean groups p99 = %v, %v, %v, want %v", g[0], g[1], g[3], clean)
	}
	if got := d.groupedPercentile(0.99); got != clean {
		t.Errorf("grouped p99 = %v, want a clean group's %v", got, clean)
	}
	if got := stats.Quantile(d, 0.99); got != 1e6 {
		t.Errorf("plain p99 = %v, want the stall, 1e6", got)
	}
	short := d[:groupSize+1]
	if got, want := short.groupedPercentile(0.5), stats.Quantile(short, 0.5); got != want {
		t.Errorf("under two groups: grouped %v, plain %v", got, want)
	}
	if got := (dist{}).groupedPercentile(0.99); got != 0 {
		t.Errorf("no samples: grouped p99 = %v, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Fatal("ratio")
	}
}
