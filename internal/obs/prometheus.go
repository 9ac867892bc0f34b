package obs

import (
	"bufio"
	"io"
	"strconv"
)

// quantiles exported for every histogram.
var promQuantiles = []float64{0.5, 0.9, 0.99}

// WritePrometheus writes the registry's metrics in Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as summaries with p50/p90/p99 quantile samples
// plus _sum and _count series. Families are emitted in sorted full-name
// order, each preceded by one # TYPE line. No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range r.snapshot() {
		fam, labels := splitName(e.name)
		if fam != lastFamily {
			bw.WriteString("# TYPE ")
			bw.WriteString(fam)
			switch e.kind {
			case kindCounter:
				bw.WriteString(" counter\n")
			case kindGauge:
				bw.WriteString(" gauge\n")
			case kindHistogram:
				bw.WriteString(" summary\n")
			}
			lastFamily = fam
		}
		switch e.kind {
		case kindCounter:
			writeSample(bw, fam, labels, strconv.FormatInt(e.c.Value(), 10))
		case kindGauge:
			writeSample(bw, fam, labels, formatFloat(e.g.Value()))
		case kindHistogram:
			for _, q := range promQuantiles {
				ql := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
				writeSample(bw, fam, spliceLabel(labels, ql), formatFloat(e.h.Quantile(q)))
			}
			writeSample(bw, fam+"_sum", labels, formatFloat(e.h.sum()))
			writeSample(bw, fam+"_count", labels, strconv.FormatUint(e.h.samples(), 10))
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line.
func writeSample(bw *bufio.Writer, family, labels, value string) {
	bw.WriteString(family)
	bw.WriteString(labels)
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// spliceLabel merges one extra label pair into a raw `{...}` block
// (which may be empty).
func spliceLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders a sample value; Prometheus spells infinities
// +Inf/-Inf, which FormatFloat produces as (+/-)Inf already.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
