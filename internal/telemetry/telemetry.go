// Package telemetry is the observability substrate shared by the
// serving layer and the CLIs: a dependency-free metrics registry
// (counters, gauges, log-bucketed histograms) with Prometheus text
// exposition, process/runtime gauges, and a span tracer that turns the
// resident engine's Observer events into Chrome trace-event JSON
// loadable in Perfetto.
//
// The paper states its contribution in costs — rounds, messages,
// per-link bits — and the repo measures them per job; this package is
// what makes those costs observable while the system runs instead of
// only after it stops.
//
// Everything here is stdlib-only and allocation-free on the hot paths:
// Counter.Add and Histogram.Observe perform a constant
// number of atomic operations and never allocate, so instrumenting a
// 20k req/s serving loop or a per-phase engine callback costs nanoseconds,
// not garbage.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct {
	Name, Value string
}

// LatencyBuckets is the default histogram bucket ladder: log-spaced
// upper bounds in seconds from 50µs to 60s, chosen so the serving
// layer's measured range (cache hits ~100µs, cold million-vertex
// queries ~minutes) lands in distinct buckets with p50/p90/p99
// resolvable to ~2.5x.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a log-bucketed distribution: observations land in the
// first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket past the last bound. Observe is allocation-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds, seconds (or any unit)
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-th quantile (0 <= q <= 1) from the buckets
// by linear interpolation within the bucket that crosses the rank.
// Observations beyond the last bound report the last bound (the
// estimate saturates, it never invents data). Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one labeled instance of a metric family: exactly one of
// the value fields is set.
type series struct {
	labels  []Label
	key     string // canonical label rendering, the dedup/sort key
	counter *Counter
	fn      func() float64 // CounterFunc / GaugeFunc callback
	hist    *Histogram
}

// family is all series of one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for a metric
// that already exists (same name and labels) returns the existing
// instance, so wiring code can run per-request without bookkeeping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// upsert returns the series for the label set, creating it via mk.
func (r *Registry) upsert(name, help string, kind metricKind, labels []Label, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	key := renderLabels(labels)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labels = append([]Label(nil), labels...)
	s.key = key
	f.series[key] = s
	return s
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.upsert(name, help, kindCounter, labels, func() *series { return &series{counter: &Counter{}} }).counter
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time (for externally maintained monotone counters, e.g. the
// store's process-wide decode stats).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.upsert(name, help, kindCounter, labels, func() *series { return &series{} })
	s.fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.upsert(name, help, kindGauge, labels, func() *series { return &series{} })
	s.fn = fn
}

// Histogram registers (or fetches) a histogram with the default
// LatencyBuckets ladder.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.HistogramWith(LatencyBuckets, name, help, labels...)
}

// HistogramWith registers (or fetches) a histogram with explicit
// bucket upper bounds. Bounds are fixed at first registration; later
// calls for the same name return the existing series regardless of
// the bounds argument.
func (r *Registry) HistogramWith(bounds []float64, name, help string, labels ...Label) *Histogram {
	return r.upsert(name, help, kindHistogram, labels, func() *series { return &series{hist: newHistogram(bounds)} }).hist
}

// DropLabeled removes every series (across all families) carrying the
// given label pair, and any family left empty. The serving layer calls
// it when a graph is unloaded so its per-graph series don't linger and
// its gauge callbacks stop being scraped.
func (r *Registry) DropLabeled(name, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for fname, f := range r.families {
		for key, s := range f.series {
			for _, l := range s.labels {
				if l.Name == name && l.Value == value {
					delete(f.series, key)
					break
				}
			}
		}
		if len(f.series) == 0 {
			delete(r.families, fname)
		}
	}
}

// renderLabels canonicalizes a label set: sorted by name, rendered in
// exposition syntax without the braces ("" for no labels).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escaping rules for
// label values: backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the exposition-format escaping rules for HELP
// text: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sampleName renders "name{labels}" or "name" plus extra labels (the
// histogram "le" label) appended after the series' own.
func sampleName(name, labelKey string, extra ...Label) string {
	all := labelKey
	if len(extra) > 0 {
		e := renderLabels(extra)
		if all == "" {
			all = e
		} else {
			all += "," + e
		}
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, one HELP and one
// TYPE line each, series sorted by label key, histograms expanded into
// cumulative _bucket/_sum/_count samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family/series structure under the lock; values are
	// read outside it (they are atomic), so a slow writer never blocks
	// registration.
	type snap struct {
		fam    *family
		series []*series
	}
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		snaps = append(snaps, snap{fam: f, series: ss})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, sn := range snaps {
		f := sn.fam
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range sn.series {
			switch {
			case s.hist != nil:
				var cum int64
				for i, bound := range s.hist.bounds {
					cum += s.hist.counts[i].Load()
					fmt.Fprintf(&b, "%s %d\n",
						sampleName(f.name+"_bucket", s.key, Label{Name: "le", Value: formatValue(bound)}), cum)
				}
				cum += s.hist.inf.Load()
				fmt.Fprintf(&b, "%s %d\n",
					sampleName(f.name+"_bucket", s.key, Label{Name: "le", Value: "+Inf"}), cum)
				fmt.Fprintf(&b, "%s %s\n", sampleName(f.name+"_sum", s.key), formatValue(s.hist.Sum()))
				fmt.Fprintf(&b, "%s %d\n", sampleName(f.name+"_count", s.key), s.hist.Count())
			case s.fn != nil:
				fmt.Fprintf(&b, "%s %s\n", sampleName(f.name, s.key), formatValue(s.fn()))
			case s.counter != nil:
				fmt.Fprintf(&b, "%s %d\n", sampleName(f.name, s.key), s.counter.Value())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
