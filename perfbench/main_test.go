package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestReportSampleCountsAndResultLine: every shown metric carries its
// sample count where it has one, and the last line is the result object
// with exactly the end-to-end or the per-layer metrics.
func TestReportSampleCountsAndResultLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := newResult()
		res.attempted, res.failed = 10, 1
		res.set("read_p50_us", 12.5, 4000)
		res.set("write_ack_p99_us", 900, 80)
		res.values["mem_mb"] = 3 // no sample count
		res.values["error_rate"] = 0.1
		var b bytes.Buffer
		if err := report(&b, opts{workload: "burst", trace: trace}, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		for _, l := range lines[:len(lines)-1] {
			if !strings.HasPrefix(l, "# ") {
				t.Fatalf("trace=%v: report line without '# ': %q", trace, l)
			}
		}
		find := func(name string) string {
			for _, l := range lines {
				if f := strings.Fields(l); len(f) > 1 && f[1] == name {
					return l
				}
			}
			return ""
		}
		if l := find("write_ack_p99_us"); !strings.HasSuffix(l, "n=80") {
			t.Errorf("trace=%v: write_ack_p99_us line %q, want n=80", trace, l)
		}
		if !trace {
			if l := find("read_p50_us"); !strings.HasSuffix(l, "n=4000") {
				t.Errorf("read_p50_us line %q, want n=4000", l)
			}
			if l := find("mem_mb"); l == "" || strings.Contains(l, "n=") {
				t.Errorf("mem_mb line %q, want one without a sample count", l)
			}
		}

		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("trace=%v: last line is not JSON: %v", trace, err)
		}
		if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
			t.Fatalf("trace=%v: result keys %v", trace, out)
		}
		if string(out["correct"]) != "false" || string(out["attempted"]) != "10" || string(out["failed"]) != "1" {
			t.Errorf("trace=%v: correct/attempted/failed = %s/%s/%s", trace, out["correct"], out["attempted"], out["failed"])
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Fatalf("trace=%v: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit || m.Value != res.values[d.name] {
				t.Errorf("trace=%v: metric %s = %+v, want %v %s", trace, d.name, m, res.values[d.name], d.unit)
			}
		}
	}
}
