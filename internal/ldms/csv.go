// Package ldms is the telemetry file codec of the reproduction: it
// reads and writes the per-node CSV layout of the Taxonomist artifact,
// as an LDMS-style collector (Agelastos et al., SC'14) sampling each
// node's metric sets once per second lays it out, and assembles the
// per-execution telemetry the recognition layers consume.
package ldms

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// The CSV codec is byte-oriented: the writer renders rows into one
// reused []byte with strconv.AppendFloat (no per-cell strings, no
// encoding/csv state machine), and the reader walks a bufio.Reader
// line by line, splitting fields in place and parsing floats through a
// zero-copy string view. The format itself is unchanged — plain
// comma-separated numeric fields, no quoting — except that offsets are
// now written in full precision (see WriteNodeCSV). ReadNodeCSVStd, the
// original encoding/csv implementation, is kept as the differential
// baseline for the fuzz harness and the ingest benchmark.

// WriteNodeCSV writes one node's telemetry in the per-node CSV layout
// of the Taxonomist artifact: a "#Time" column of seconds since
// execution start followed by one column per metric, one row per
// sampling tick. Metrics are ordered alphabetically; series are assumed
// to share the 1 Hz grid (the collector's output does).
//
// Offsets are written in shortest round-trippable precision, not the
// historical one-decimal form, which silently collided sub-decisecond
// offsets and drifted non-integral ones through the parser's
// truncating float→Duration conversion.
func WriteNodeCSV(w io.Writer, ns *telemetry.NodeSet, node int) error {
	metrics := ns.Metrics()
	if len(metrics) == 0 {
		return fmt.Errorf("ldms: node set has no metrics")
	}
	series := make([]*telemetry.Series, len(metrics))
	rows := 0
	for i, m := range metrics {
		s := ns.Get(node, m)
		if s == nil {
			return fmt.Errorf("ldms: node %d has no series for %q", node, m)
		}
		series[i] = s
		if i == 0 {
			rows = s.Len()
		} else if s.Len() != rows {
			return fmt.Errorf("ldms: node %d series %q has %d samples, expected %d",
				node, m, s.Len(), rows)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 16*(len(metrics)+1))
	buf = append(buf, "#Time"...)
	for _, m := range metrics {
		buf = append(buf, ',')
		buf = append(buf, m...)
	}
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for r := 0; r < rows; r++ {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, series[0].OffsetAt(r).Seconds(), 'g', -1, 64)
		for _, s := range series {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, s.ValueAt(r), 'g', -1, 64)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// secondsToOffset converts a seconds value parsed from CSV into a
// Duration, rounding to the nearest nanosecond. The historical
// truncating conversion turned 0.1 s into 99999999 ns, so offsets
// drifted on every round-trip.
func secondsToOffset(secs float64) (time.Duration, error) {
	ns := secs * float64(time.Second)
	if math.IsNaN(ns) || ns > float64(math.MaxInt64) || ns < math.MinInt64 {
		return 0, fmt.Errorf("ldms: offset %g s out of range", secs)
	}
	return time.Duration(math.Round(ns)), nil
}

// bstr gives a zero-copy string view of b for parsing. The view must
// not outlive b's next mutation; strconv.ParseFloat does not retain it.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// lineReader yields one CSV line at a time from a bufio.Reader,
// trimming the trailing LF/CRLF, reusing an internal buffer for lines
// that span bufio fragments.
type lineReader struct {
	br  *bufio.Reader
	buf []byte
}

// next returns the next line (valid until the following call), or
// io.EOF when the input is exhausted. A final line without a newline
// is returned before EOF. Lines that fit in one bufio fragment — the
// overwhelmingly common case — are returned as a view into the bufio
// buffer without copying; only lines spilling across fragments go
// through the accumulation buffer.
func (lr *lineReader) next() ([]byte, error) {
	lr.buf = lr.buf[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		switch err {
		case nil:
			if len(lr.buf) == 0 {
				return trimEOL(frag), nil
			}
			lr.buf = append(lr.buf, frag...)
			return trimEOL(lr.buf), nil
		case bufio.ErrBufferFull:
			lr.buf = append(lr.buf, frag...)
			continue
		case io.EOF:
			if len(lr.buf) == 0 {
				if len(frag) == 0 {
					return nil, io.EOF
				}
				return trimEOL(frag), nil
			}
			lr.buf = append(lr.buf, frag...)
			return trimEOL(lr.buf), nil
		default:
			return nil, err
		}
	}
}

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return b
}

// ReadNodeCSV parses a per-node CSV written by WriteNodeCSV back into
// series for the given node, returned inside a fresh NodeSet. The
// parse is a single byte-oriented pass: no per-row field slices, no
// per-cell strings. Series are sorted before return when rows arrived
// out of order, so the telemetry is immediately queryable.
func ReadNodeCSV(r io.Reader, node int) (*telemetry.NodeSet, error) {
	lr := &lineReader{br: bufio.NewReaderSize(r, 1<<16)}
	header, err := lr.next()
	for err == nil && len(header) == 0 { // leading blank lines, skipped like encoding/csv
		header, err = lr.next()
	}
	if err != nil {
		return nil, fmt.Errorf("ldms: read CSV header: %w", err)
	}
	metrics, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	nm := len(metrics)
	nf := nm + 1
	// Rows accumulate into two flat columnar scratch buffers (offsets,
	// plus row-major values) rather than growing one slice per series:
	// O(log rows) growth allocations total instead of per metric, and
	// the series are then built at their exact final size.
	var offs []time.Duration
	var flat []float64
	for line := 2; ; line++ {
		row, err := lr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ldms: read CSV line %d: %w", line, err)
		}
		if len(row) == 0 {
			continue // blank line, skipped like encoding/csv does
		}
		field, rest, fields := splitField(row), row, 1
		secs, err := strconv.ParseFloat(bstr(field), 64)
		if err != nil {
			return nil, fmt.Errorf("ldms: CSV line %d time: %w", line, err)
		}
		offset, err := secondsToOffset(secs)
		if err != nil {
			return nil, fmt.Errorf("ldms: CSV line %d time: %w", line, err)
		}
		rest = rest[len(field):]
		for i := 0; len(rest) > 0 && rest[0] == ','; i++ {
			rest = rest[1:]
			field = splitField(rest)
			fields++
			if fields > nf {
				break
			}
			v, err := strconv.ParseFloat(bstr(field), 64)
			if err != nil {
				return nil, fmt.Errorf("ldms: CSV line %d field %s: %w", line, metrics[i], err)
			}
			flat = append(flat, v)
			rest = rest[len(field):]
		}
		if fields != nf {
			flat = flat[:len(offs)*nm]
			return nil, fmt.Errorf("ldms: CSV line %d has %d fields, want %d", line, fields, nf)
		}
		offs = append(offs, offset)
	}
	rows := len(offs)
	// Transpose the row-major scratch into one column-major backing
	// array and hand each series its column: one value allocation for
	// the whole node instead of one per series.
	cols := make([]float64, rows*nm)
	for r := 0; r < rows; r++ {
		for i := 0; i < nm; i++ {
			cols[i*rows+r] = flat[r*nm+i]
		}
	}
	ns := telemetry.NewNodeSet()
	for i, m := range metrics {
		ns.Put(telemetry.NewSeriesFromColumns(m, node, offs, cols[i*rows:(i+1)*rows:(i+1)*rows]))
	}
	ns.Sort() // CSV rows are not guaranteed time-ordered
	return ns, nil
}

// parseHeader validates the "#Time,metric,..." header and returns the
// metric column names.
func parseHeader(header []byte) ([]string, error) {
	if !bytes.HasPrefix(header, []byte("#Time,")) {
		return nil, fmt.Errorf("ldms: bad CSV header %q", header)
	}
	rest := header[len("#Time,"):]
	var metrics []string
	for {
		f := splitField(rest)
		metrics = append(metrics, string(f))
		if len(f) == len(rest) {
			return metrics, nil
		}
		rest = rest[len(f)+1:]
	}
}

// splitField returns the prefix of b up to (not including) the first
// comma, or all of b when it holds the final field of the row.
func splitField(b []byte) []byte {
	if i := bytes.IndexByte(b, ','); i >= 0 {
		return b[:i]
	}
	return b
}

// ReadNodeCSVStd is the original encoding/csv implementation, retained
// as the differential-fuzzing and benchmarking baseline for the
// byte-oriented reader above.
func ReadNodeCSVStd(r io.Reader, node int) (*telemetry.NodeSet, error) { //efdvet:ignore deadcode baseline of FuzzReadNodeCSV, TestReadNodeCSVMatchesStd, TestIngestAllocRatio, root bench
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("ldms: read CSV header: %w", err)
	}
	if len(header) < 2 || header[0] != "#Time" {
		return nil, fmt.Errorf("ldms: bad CSV header %v", header)
	}
	metrics := header[1:]
	series := make([]*telemetry.Series, len(metrics))
	for i, m := range metrics {
		series[i] = telemetry.NewSeries(m, node, 0)
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ldms: read CSV line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("ldms: CSV line %d has %d fields, want %d",
				line, len(rec), len(header))
		}
		secs, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("ldms: CSV line %d time: %w", line, err)
		}
		offset, err := secondsToOffset(secs)
		if err != nil {
			return nil, fmt.Errorf("ldms: CSV line %d time: %w", line, err)
		}
		for i := range metrics {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("ldms: CSV line %d field %s: %w", line, metrics[i], err)
			}
			series[i].Append(offset, v)
		}
	}
	ns := telemetry.NewNodeSet()
	for _, s := range series {
		ns.Put(s)
	}
	ns.Sort()
	return ns, nil
}

// WriteExecutionCSV writes every node of an execution through w,
// separated per node by a comment line "# node N". It is a single-file
// convenience over WriteNodeCSV for tooling; ReadExecutionCSV is its
// inverse.
func WriteExecutionCSV(w io.Writer, ns *telemetry.NodeSet) error {
	for _, node := range ns.Nodes() {
		if _, err := fmt.Fprintf(w, "# node %d\n", node); err != nil {
			return err
		}
		if err := WriteNodeCSV(w, ns, node); err != nil {
			return err
		}
	}
	return nil
}

// ReadExecutionCSV parses a multi-node file written by WriteExecutionCSV
// back into one NodeSet. The per-node sections are located in one pass
// and then parsed concurrently on the internal/par worker pool (0
// workers means GOMAXPROCS), which is where multi-node ingest spends
// nearly all of its time.
func ReadExecutionCSV(r io.Reader, workers int) (*telemetry.NodeSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ldms: read execution CSV: %w", err)
	}
	return parseExecutionCSV(data, workers)
}

// parseExecutionCSV is the shared body of ReadExecutionCSV and the
// memory-mapped ReadExecutionCSVFile: it only reads data, so a
// read-only mapping can be passed directly.
func parseExecutionCSV(data []byte, workers int) (*telemetry.NodeSet, error) {
	type section struct {
		node int
		body []byte
	}
	var secs []section
	for len(data) > 0 {
		line := data[:lineLen(data)]
		rest := data[lineLen(data):]
		var node int
		if _, err := fmt.Sscanf(string(trimEOL(line)), "# node %d", &node); err != nil {
			return nil, fmt.Errorf("ldms: expected \"# node N\" separator, got %q", trimEOL(line))
		}
		end := bytes.Index(rest, []byte("\n# node "))
		var body []byte
		if end < 0 {
			body, data = rest, nil
		} else {
			body, data = rest[:end+1], rest[end+1:]
		}
		secs = append(secs, section{node: node, body: body})
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("ldms: execution CSV has no node sections")
	}
	parts := make([]*telemetry.NodeSet, len(secs))
	errs := make([]error, len(secs))
	par.For(len(secs), workers, func(i int) {
		parts[i], errs[i] = ReadNodeCSV(bytes.NewReader(secs[i].body), secs[i].node)
	})
	out := telemetry.NewNodeSet()
	for i, p := range parts {
		if errs[i] != nil {
			return nil, fmt.Errorf("ldms: node %d section: %w", secs[i].node, errs[i])
		}
		for _, node := range p.Nodes() {
			for _, m := range p.Metrics() {
				if s := p.Get(node, m); s != nil {
					out.Put(s)
				}
			}
		}
	}
	return out, nil
}

// lineLen returns the length of the first line of b including its
// newline, or len(b) for a final unterminated line.
func lineLen(b []byte) int {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return i + 1
	}
	return len(b)
}
