package telemetry

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // monotone: ignored
	if c.Value() != 5 {
		t.Fatalf("counter: %d, want 5", c.Value())
	}
	r := NewRegistry()
	r.GaugeFunc("g", "h", func() float64 { return 1.5 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || !strings.Contains(sb.String(), "\ng 1.5\n") {
		t.Fatalf("gauge: %q (%v), want a g 1.5 sample", sb.String(), err)
	}
}

func TestRegistryIdempotentUpsert(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Label{Name: "g", Value: "web"})
	b := r.Counter("x_total", "help", Label{Name: "g", Value: "web"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("x_total", "help", Label{Name: "g", Value: "social"})
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.GaugeFunc("x_total", "help", func() float64 { return 0 })
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count: %d", h.Count())
	}
	if math.Abs(h.Sum()-112.5) > 1e-9 {
		t.Fatalf("sum: %v", h.Sum())
	}
	// Quantiles interpolate within the crossing bucket and saturate at
	// the last bound for the +Inf tail.
	if q := h.Quantile(0.5); q < 1 || q > 4 {
		t.Fatalf("p50: %v", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 should saturate at the last bound: %v", q)
	}
	empty := newHistogram([]float64{1})
	if empty.Quantile(0.9) != 0 {
		t.Fatalf("empty quantile: %v", empty.Quantile(0.9))
	}
}

// Exposition-format line shapes (text format 0.0.4).
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)
)

// TestPrometheusGrammar checks the full rendered exposition against the
// text-format grammar: every line is a HELP, TYPE, or sample line;
// HELP/TYPE precede their family's samples; families are sorted;
// histogram buckets are cumulative with _count equal to the +Inf
// bucket; label values are escaped.
func TestPrometheusGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_requests_total", "Requests.", Label{Name: "endpoint", Value: "mst"}).Add(3)
	r.Counter("b_requests_total", "Requests.", Label{Name: "endpoint", Value: "connectivity"}).Add(9)
	r.GaugeFunc("a_queue_depth", "Depth.", func() float64 { return 2 }, Label{Name: "graph", Value: `we"ird\name` + "\n"})
	r.GaugeFunc("c_live", "Scrape-time.", func() float64 { return 7.5 })
	h := r.HistogramWith([]float64{0.001, 0.01, 0.1}, "b_latency_seconds", "Latency.")
	for _, v := range []float64{0.0005, 0.005, 0.05, 5} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	var familiesSeen []string
	sawHelp := map[string]bool{}
	sawType := map[string]bool{}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
			name := strings.Fields(line)[2]
			familiesSeen = append(familiesSeen, name)
			sawHelp[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			if !typeRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
			sawType[strings.Fields(line)[2]] = true
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !sawHelp[base] || !sawType[base] {
				t.Errorf("sample %q precedes its HELP/TYPE", line)
			}
		}
	}
	if !sortedStrings(familiesSeen) {
		t.Errorf("families not sorted: %v", familiesSeen)
	}

	// Histogram: cumulative buckets, _count == +Inf bucket, _sum present.
	var prev, infCount, count int64 = -1, -1, -1
	for _, line := range lines {
		if strings.HasPrefix(line, "b_latency_seconds_bucket") {
			v, _ := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if v < prev {
				t.Errorf("non-cumulative bucket: %q", line)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				infCount = v
			}
		}
		if strings.HasPrefix(line, "b_latency_seconds_count ") {
			count, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if infCount != 4 || count != 4 {
		t.Errorf("histogram totals: +Inf bucket %d, _count %d, want 4", infCount, count)
	}
	if !strings.Contains(out, `graph="we\"ird\\name\n"`) {
		t.Errorf("label escaping missing:\n%s", out)
	}
	if !strings.Contains(out, "c_live 7.5") {
		t.Errorf("GaugeFunc sample missing:\n%s", out)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestDropLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "h", Label{Name: "graph", Value: "web"}).Inc()
	r.Counter("jobs_total", "h", Label{Name: "graph", Value: "social"}).Inc()
	r.GaugeFunc("depth", "h", func() float64 { return 1 }, Label{Name: "graph", Value: "web"})
	r.DropLabeled("graph", "web")
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if strings.Contains(out, `graph="web"`) {
		t.Errorf("dropped series still rendered:\n%s", out)
	}
	if !strings.Contains(out, `graph="social"`) {
		t.Errorf("unrelated series dropped:\n%s", out)
	}
	if strings.Contains(out, "# TYPE depth") {
		t.Errorf("empty family still rendered:\n%s", out)
	}
}

// Primitive costs, the per-event price of instrumentation (E17).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c_total", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h_seconds", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

// TestHotPathsAllocationFree pins the instrumentation primitives the
// serving loop and engine callbacks hit per event: none may allocate.
func TestHotPathsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	h := r.Histogram("h_seconds", "h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}
