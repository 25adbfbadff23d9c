package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE comments, then one sample line
// per child — counters and gauges directly, histograms as cumulative
// _bucket{le=...} series (empty buckets elided; the le bounds are the
// histogram's fixed log-linear boundaries in seconds, so quantiles are
// derivable with histogram_quantile) plus _sum and _count. Families and
// children are emitted in sorted order so output is diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.sortedChildren() {
			switch m := c.metric.(type) {
			case *Counter:
				writeSample(bw, f.name, f.labels, c.labelValues, "", "", strconv.FormatUint(m.Value(), 10))
			case *Gauge:
				writeSample(bw, f.name, f.labels, c.labelValues, "", "", formatFloat(m.Value()))
			case *Histogram:
				writeHistogram(bw, f.name, f.labels, c.labelValues, m.Snapshot())
			case runtimeMetric:
				writeSample(bw, f.name, f.labels, c.labelValues, "", "", m.value())
			}
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — what adplatformd mounts at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// writeHistogram emits the cumulative bucket series, sum, and count for
// one histogram child. Buckets with no observations are elided (the series
// stays cumulative, so this loses nothing); the final catch-all bucket
// never gets a finite le — its population is visible only in +Inf.
func writeHistogram(w *bufio.Writer, name string, labels, values []string, s HistogramSnapshot) {
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		if i == NumBuckets-1 {
			break // catch-all: counted in +Inf below
		}
		le := formatFloat(float64(BucketUpperNanos(i)) / 1e9)
		writeSample(w, name+"_bucket", labels, values, "le", le, strconv.FormatUint(cum, 10))
	}
	writeSample(w, name+"_bucket", labels, values, "le", "+Inf", strconv.FormatUint(s.Count, 10))
	writeSample(w, name+"_sum", labels, values, "", "", formatFloat(float64(s.SumNanos)/1e9))
	writeSample(w, name+"_count", labels, values, "", "", strconv.FormatUint(s.Count, 10))
}

// writeSample emits one line: name{labels...,extraK="extraV"} value.
func writeSample(w *bufio.Writer, name string, labels, values []string, extraK, extraV, value string) {
	w.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraK != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(extraK)
			w.WriteString(`="`)
			w.WriteString(extraV)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	return helpEscaper.Replace(v)
}
