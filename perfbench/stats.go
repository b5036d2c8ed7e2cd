package main

import "repro/internal/stats"

// dist is a set of samples of one quantity, kept whole and in the order
// they were taken, so every reported figure can state its sample count.
// Percentiles, medians and means come from internal/stats.
type dist []float64

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// groupSize is how many consecutive samples form one group of a
// grouped percentile: enough that a group's 99th percentile has ten
// samples beyond it.
const groupSize = 1000

// groupedPercentile splits samples, in the order they were taken, into
// consecutive groups of groupSize (the remainder joins the last group)
// and returns the median of the groups' p-quantiles. A few seconds of
// host scheduling noise then move one group's tail, not the reported
// figure. Fewer than two groups' worth of samples is one group.
func (d dist) groupedPercentile(p float64) float64 {
	return stats.Quantile(d.groups(p), 0.5)
}

// groups returns the p-quantile of each group (see groupedPercentile).
func (d dist) groups(p float64) dist {
	if len(d) < 2*groupSize {
		return dist{stats.Quantile(d, p)}
	}
	var per dist
	for lo := 0; lo+groupSize <= len(d); lo += groupSize {
		hi := lo + groupSize
		if len(d)-hi < groupSize {
			hi = len(d)
		}
		per = append(per, stats.Quantile(d[lo:hi], p))
	}
	return per
}
