package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/obs"
)

func render(t *testing.T, reg *obs.Registry) scrape {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, err := parseScrape(&b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScrapeDiffs checks the /metrics arithmetic on a registry rendered
// and parsed back through obs.ParseText, as a kcored scrape is.
func TestScrapeDiffs(t *testing.T) {
	reg := obs.NewRegistry()
	reads := obs.NewCounter("cmds_total", "commands", obs.L("family", "read"))
	writes := obs.NewCounter("cmds_total", "commands", obs.L("family", "write"))
	apply := obs.NewDurationHistogram("stage_seconds", "stages", obs.L("engine", "ParallelOrder"), obs.L("stage", "apply"))
	wait := obs.NewDurationHistogram("stage_seconds", "stages", obs.L("engine", "ParallelOrder"), obs.L("stage", "coalesce_wait"))
	reg.MustRegister(reads, writes, apply, wait)

	reads.Add(5)
	apply.ObserveDuration(time.Second) // before the window: must not count
	before := render(t, reg)

	reads.Add(10)
	writes.Add(3)
	for i := 0; i < 98; i++ {
		apply.ObserveDuration(2 * time.Millisecond)
	}
	apply.ObserveDuration(400 * time.Millisecond)
	apply.ObserveDuration(400 * time.Millisecond)
	wait.ObserveDuration(time.Microsecond)
	after := render(t, reg)

	if got := delta(before, after, "cmds_total", `family="read"`); got != 10 {
		t.Errorf("read delta = %v, want 10", got)
	}
	if got := delta(before, after, "cmds_total"); got != 13 {
		t.Errorf("all-family delta = %v, want 13", got)
	}
	mean, n := histMean(before, after, "stage_seconds", `stage="apply"`)
	if n != 100 || math.Abs(mean-(98*0.002+0.8)/100) > 1e-9 {
		t.Errorf("apply mean = %v over %v, want %v over 100", mean, n, (98*0.002+0.8)/100)
	}
	// Two of the hundred observations sit in the (250ms, 500ms] bucket,
	// so p50 lies in the 2ms observations' bucket and p99 in theirs.
	if p := histQuantile(before, after, "stage_seconds", 0.5, `stage="apply"`); p < 0.001 || p > 0.0025 {
		t.Errorf("p50 = %v, want within (1ms, 2.5ms]", p)
	}
	if p := histQuantile(before, after, "stage_seconds", 0.99, `stage="apply"`); p <= 0.25 || p > 0.5 {
		t.Errorf("p99 = %v, want within (250ms, 500ms]", p)
	}
	if p := histQuantile(before, before, "stage_seconds", 0.99, `stage="apply"`); p != 0 {
		t.Errorf("empty-window quantile = %v, want 0", p)
	}
	if _, n := histMean(before, after, "stage_seconds", `stage="coalesce_wait"`); n != 1 {
		t.Errorf("wait count = %v, want 1", n)
	}
}

func TestMatchesLabelSubsets(t *testing.T) {
	key := `kcore_pipeline_stage_seconds_sum{engine="ParallelOrder",stage="apply"}`
	cases := []struct {
		name string
		want []string
		ok   bool
	}{
		{"kcore_pipeline_stage_seconds_sum", nil, true},
		{"kcore_pipeline_stage_seconds_sum", []string{`stage="apply"`}, true},
		{"kcore_pipeline_stage_seconds_sum", []string{`engine="ParallelOrder"`, `stage="apply"`}, true},
		{"kcore_pipeline_stage_seconds_sum", []string{`stage="app"`}, false},
		{"kcore_pipeline_stage_seconds", []string{`stage="apply"`}, false},
	}
	for _, c := range cases {
		if got := matches(key, c.name, c.want); got != c.ok {
			t.Errorf("matches(%s, %v) = %v, want %v", c.name, c.want, got, c.ok)
		}
	}
	if !matches("kcored_batches_total", "kcored_batches_total", nil) {
		t.Error("unlabeled series did not match its name")
	}
}

// TestPollTracedScrapesOnlyTracedWindows: the tracing work runs in the
// traced windows and nowhere else, so it is priced against the
// untraced ones.
func TestPollTracedScrapesOnlyTracedWindows(t *testing.T) {
	reg := obs.NewRegistry()
	reg.MustRegister(obs.NewCounter("cmds_total", "commands"))
	var hits atomic.Int32
	mux := obs.NewMux(reg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// Polls fall at 100, 200, 300 and 400ms; only those from 200ms on
	// are in a traced window.
	traced := func(at time.Duration) bool { return at >= 2*tracePoll }
	start, stop := time.Now(), make(chan struct{})
	time.AfterFunc(4*tracePoll+tracePoll/2, func() { close(stop) })
	n, err := pollTraced(strings.TrimPrefix(ts.URL, "http://"), traced, start, stop)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || hits.Load() != 3 {
		t.Fatalf("%d scrapes reported, %d served, want 3", n, hits.Load())
	}
}
