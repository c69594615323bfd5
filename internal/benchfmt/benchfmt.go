// Package benchfmt is the machine-readable benchmark schema
// ("kmachine-bench/v2") cmd/kmload writes its serving throughput and
// latency in.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Schema is the current schema identifier.
const Schema = "kmachine-bench/v2"

// Result is one benchmark measurement.
type Result struct {
	// Name identifies the benchmark (slash-separated, the request family
	// after the benchmark's, e.g. "ServeLoad/connectivity").
	Name string `json:"name"`
	// NsPerOp is the mean request latency.
	NsPerOp float64 `json:"ns_per_op"`

	// Zero values below are omitted.
	//
	// Requests counts completed requests; Errors counts non-2xx
	// responses other than 429; Rejected counts 429 backpressure
	// refusals (not errors: the server shedding load is it working).
	Requests int64 `json:"requests,omitempty"`
	Errors   int64 `json:"errors,omitempty"`
	Rejected int64 `json:"rejected,omitempty"`
	// Non2xx / Timeouts / TransportErrors break Errors down by cause:
	// HTTP responses with status >= 400 other than 429, client-side
	// deadline expiries, and transport-level failures (connection
	// refused/reset, DNS). Producers that classify set all three and
	// they sum to Errors; older producers leave them zero.
	Non2xx          int64 `json:"non_2xx,omitempty"`
	Timeouts        int64 `json:"timeouts,omitempty"`
	TransportErrors int64 `json:"transport_errors,omitempty"`
	// RequestsPerSec is completed-request throughput over the run.
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	// P50Ns / P90Ns / P99Ns are request latency percentiles.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P90Ns float64 `json:"p90_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// Doc is one benchmark file.
type Doc struct {
	Schema     string   `json:"schema"`
	Benchmarks []Result `json:"benchmarks"`
}

// Validate checks d is a well-formed kmachine-bench/v2 document.
func (d *Doc) Validate() error {
	if d.Schema != Schema {
		return fmt.Errorf("benchfmt: schema %q, want %q", d.Schema, Schema)
	}
	for i, r := range d.Benchmarks {
		if r.Name == "" {
			return fmt.Errorf("benchfmt: benchmark %d has no name", i)
		}
		for name, v := range map[string]float64{
			"ns_per_op": r.NsPerOp, "requests_per_sec": r.RequestsPerSec,
			"p50_ns": r.P50Ns, "p90_ns": r.P90Ns, "p99_ns": r.P99Ns,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("benchfmt: %s: bad %s %v", r.Name, name, v)
			}
		}
		if (r.P90Ns != 0 && r.P50Ns > r.P90Ns+1e-9) || (r.P99Ns != 0 && r.P90Ns > r.P99Ns+1e-9) {
			return fmt.Errorf("benchfmt: %s: percentiles not monotone (p50=%v p90=%v p99=%v)",
				r.Name, r.P50Ns, r.P90Ns, r.P99Ns)
		}
		if sub := r.Non2xx + r.Timeouts + r.TransportErrors; sub > r.Errors {
			return fmt.Errorf("benchfmt: %s: error breakdown %d exceeds errors %d",
				r.Name, sub, r.Errors)
		}
	}
	return nil
}

// WriteFile writes results as a kmachine-bench/v2 document at path.
func WriteFile(path string, results []Result) error {
	doc := Doc{Schema: Schema, Benchmarks: results}
	if err := doc.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of sorted
// latencies by nearest-rank; 0 on an empty slice.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ErrorCounts is a failed-request breakdown by cause, accumulated by a
// load generator and folded into a Result by Summarize.
type ErrorCounts struct {
	// Non2xx counts HTTP responses with status >= 400 other than 429.
	Non2xx int64
	// Timeouts counts client-side deadline expiries (the request never
	// produced a response in time).
	Timeouts int64
	// Transport counts transport-level failures: connection refused or
	// reset, DNS errors — anything below HTTP.
	Transport int64
}

// Total is the summed error count across causes.
func (e ErrorCounts) Total() int64 { return e.Non2xx + e.Timeouts + e.Transport }

// Add accumulates another breakdown into e.
func (e *ErrorCounts) Add(o ErrorCounts) {
	e.Non2xx += o.Non2xx
	e.Timeouts += o.Timeouts
	e.Transport += o.Transport
}

// Summarize folds one request-latency population into a serving Result:
// mean and percentile latencies, throughput over elapsed, and the
// error/backpressure counters (Errors is the breakdown's total).
func Summarize(name string, latencies []time.Duration, elapsed time.Duration, errs ErrorCounts, rejected int64) Result {
	r := Result{
		Name:            name,
		Requests:        int64(len(latencies)),
		Errors:          errs.Total(),
		Non2xx:          errs.Non2xx,
		Timeouts:        errs.Timeouts,
		TransportErrors: errs.Transport,
		Rejected:        rejected,
	}
	if len(latencies) == 0 {
		return r
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	r.NsPerOp = float64(sum.Nanoseconds()) / float64(len(sorted))
	r.P50Ns = float64(Percentile(sorted, 50).Nanoseconds())
	r.P90Ns = float64(Percentile(sorted, 90).Nanoseconds())
	r.P99Ns = float64(Percentile(sorted, 99).Nanoseconds())
	if elapsed > 0 {
		r.RequestsPerSec = float64(len(sorted)) / elapsed.Seconds()
	}
	return r
}
