package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/obs"
)

// scrape is one reading of a Prometheus text exposition: series (name
// plus label set, verbatim) to value, as obs.ParseText returns it.
type scrape map[string]float64

// fetchMetrics reads and parses a kcored /metrics endpoint.
func fetchMetrics(addr string) (scrape, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	res, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, res.Status)
	}
	return parseScrape(res.Body)
}

func parseScrape(r io.Reader) (scrape, error) {
	m, err := obs.ParseText(r)
	if err != nil {
		return nil, fmt.Errorf("parse metrics: %w", err)
	}
	return scrape(m), nil
}

// sum adds the values of every series of family name whose label set
// contains each of the k="v" pairs in want.
func (s scrape) sum(name string, want ...string) float64 {
	var total float64
	for key, v := range s {
		if matches(key, name, want) {
			total += v
		}
	}
	return total
}

// matches reports whether series key belongs to family name and carries
// every label pair in want.
func matches(key, name string, want []string) bool {
	labels := ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		key, labels = key[:i], key[i:]
	}
	if key != name {
		return false
	}
	for _, w := range want {
		if !strings.Contains(labels, "{"+w+",") && !strings.Contains(labels, "{"+w+"}") &&
			!strings.Contains(labels, ","+w+",") && !strings.Contains(labels, ","+w+"}") {
			return false
		}
	}
	return true
}

// delta is the change of a counter family (summed over matching series)
// between two scrapes.
func delta(before, after scrape, name string, want ...string) float64 {
	return after.sum(name, want...) - before.sum(name, want...)
}

// histMean is a histogram's mean observation between two scrapes,
// Δ_sum/Δ_count in the family's unit, with the observation count.
func histMean(before, after scrape, name string, want ...string) (mean, count float64) {
	count = delta(before, after, name+"_count", want...)
	return ratio(delta(before, after, name+"_sum", want...), count), count
}

// histQuantile estimates a histogram's q-quantile between two scrapes
// from its bucket deltas, interpolating linearly inside the owning
// bucket the way obs.Histogram.Quantile does. Observations in the +Inf
// bucket clamp to the last finite bound.
func histQuantile(before, after scrape, name string, q float64, want ...string) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for key, v := range after {
		if !matches(key, name+"_bucket", want) {
			continue
		}
		i := strings.Index(key, `le="`)
		if i < 0 {
			continue
		}
		leStr := key[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err := strconv.ParseFloat(leStr, 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[key]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prev {
			if b.le > 1e300 {
				return lo
			}
			return lo + (b.le-lo)*(target-prev)/(b.cum-prev)
		}
		if b.le < 1e300 {
			lo = b.le
		}
		prev = b.cum
	}
	return lo
}
