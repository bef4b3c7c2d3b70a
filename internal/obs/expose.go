package obs

// Prometheus text exposition format 0.0.4: one # HELP / # TYPE pair
// per family, families in name order, series in label order — the
// output is deterministic given deterministic values, which the
// exposition golden test pins.

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentTypeExposition is the Content-Type of the /metrics response.
const ContentTypeExposition = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in text exposition
// format 0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot under the lock: late registrations append to family
	// series slices, and exposition must not race them.
	r.mu.Lock()
	fams := make([]family, 0, len(r.fams))
	for _, fam := range r.fams {
		snap := *fam
		snap.series = append([]*series(nil), fam.series...)
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b bytes.Buffer
	for _, fam := range fams {
		b.Reset()
		if fam.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(fam.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(fam.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(fam.name)
		b.WriteByte(' ')
		b.WriteString(fam.kind.String())
		b.WriteByte('\n')
		for _, s := range fam.series {
			switch fam.kind {
			case kindCounter:
				v := s.c.Value()
				if s.cf != nil {
					v = s.cf()
				}
				writeSample(&b, fam.name, "", s.labels, "", float64(v))
			case kindGauge:
				writeSample(&b, fam.name, "", s.labels, "", s.gf())
			case kindHistogram:
				writeHistogram(&b, fam.name, s)
			}
		}
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits the cumulative _bucket series, then _sum and
// _count. Bucket counts snapshot per bucket; under concurrent Observe
// the cumulative counts stay monotone within this scrape.
func writeHistogram(b *bytes.Buffer, name string, s *series) {
	h := s.h
	cum := int64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		writeSample(b, name, "_bucket", s.labels, formatFloat(ub), float64(cum))
	}
	cum += h.counts[len(h.upper)].Load()
	writeSample(b, name, "_bucket", s.labels, "+Inf", float64(cum))
	writeSample(b, name, "_sum", s.labels, "", h.Sum())
	writeSample(b, name, "_count", s.labels, "", float64(h.Count()))
}

// writeSample emits one line: name+suffix{labels,le="le"} value.
func writeSample(b *bytes.Buffer, name, suffix, labels, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if le != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a value the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the format spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentTypeExposition)
		var buf bytes.Buffer
		_ = r.WritePrometheus(&buf)
		_, _ = w.Write(buf.Bytes())
	})
}
