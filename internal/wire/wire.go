// Package wire implements the EFD columnar binary encoding shared by
// the tsdb write-ahead log and the HTTP binary ingest content type
// (application/x-efd-runs).
//
// Every record travels in one CRC frame:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// The payload starts with a one-byte record type. Sample runs travel
// as job-runs records (TypeJobRuns): all of one job's runs in a call,
// with the job ID once, a table of the metric names the runs use, and
// per run the metric's table index, the node, the count, the offsets
// and the values. Offsets are zigzag-varint deltas in the record's
// unit — the largest power of ten nanoseconds, up to one second, that
// divides every offset in the record — chained across the record's
// runs, so a 1 Hz tick costs one byte of offset per sample. Values
// are raw little-endian float64 bits. Decoding therefore reconstructs
// columns bit-exactly — the property that makes binary ingest, WAL
// replay, and the in-memory stream state interchangeable.
//
// TypeRun, one run per record with its offsets in nanoseconds, is
// what every writer produced before job-runs records. Nothing writes
// it any more, but it stays decodable: older WALs replay and older
// clients' bodies ingest.
//
// The format is append-only versioned by record type: decoders reject
// unknown types, so a new record kind is a new type byte, never a
// silent reinterpretation of an old one.
package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"time"
)

const (
	// FrameHeaderLen is the byte length of the frame header.
	FrameHeaderLen = 8
	// MaxRecord is the frame sanity bound: no record exceeds 256 MiB.
	MaxRecord = 1 << 28
)

// ContentTypeRuns is the HTTP media type under which framed run
// records travel (POST /v1/samples binary ingest). It lives here with
// the rest of the encoding so the client and server can never
// disagree on it.
const ContentTypeRuns = "application/x-efd-runs"

// Record types.
const (
	TypeRegister = byte(1) // job registered: job, nodes
	TypeRun      = byte(2) // one sample run: job, metric, node, offsets, values
	TypeFinish   = byte(3) // job finished (labelled): job, seq, label
	TypeDrop     = byte(4) // job deleted outright: job
	TypeJobRuns  = byte(5) // one job's sample runs: job, unit, metric table, runs
)

// Castagnoli is the CRC-32C table every EFD frame and segment block
// checksum uses.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendUvarint appends v in unsigned varint encoding.
//
//efd:hotpath
func AppendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

// AppendString appends a length-prefixed string.
//
//efd:hotpath
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Zigzag maps a signed delta onto the unsigned varint space.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendRun appends one run record's payload: type byte, job, metric,
// node, count, zigzag-varint offset deltas, raw float64 bits. Offset
// deltas restart from zero per record, so a long run split across
// several records decodes identically.
//
//efd:hotpath
func AppendRun(b []byte, job, metric string, node int, offs []time.Duration, vals []float64) []byte {
	b = append(b, TypeRun)
	b = AppendString(b, job)
	b = AppendString(b, metric)
	b = AppendUvarint(b, uint64(node))
	b = AppendUvarint(b, uint64(len(vals)))
	prev := int64(0)
	for _, off := range offs {
		b = AppendUvarint(b, Zigzag(int64(off)-prev))
		prev = int64(off)
	}
	for _, v := range vals {
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		b = append(b, raw[:]...)
	}
	return b
}

// pow10 holds the job-runs offset units: pow10[e] is 10^e ns.
var pow10 = [...]int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// maxUnitExp is the exponent of the coarsest unit, one second.
const maxUnitExp = len(pow10) - 1

// metricScan bounds how many table entries JobRuns.Add compares a
// metric name with, newest first. A job's runs cycle through a few
// metrics; a record naming more than this may repeat a name in its
// table, which costs bytes but never a scan of the whole table per
// run.
const metricScan = 16

// JobRuns assembles one job-runs record. Add the job's runs in order,
// then append the record with AppendPayload or AppendFrame, which
// reset it for the next one. It references the added columns until
// then and keeps its scratch across records, so a reused JobRuns
// encodes without allocating. The zero value is ready to use.
type JobRuns struct {
	metrics []string
	runs    []jobRun
	samples int
	// fine is how many powers of ten the record's unit lies below
	// one second.
	fine int
}

type jobRun struct {
	metric, node int
	offs         []time.Duration
	vals         []float64
}

// Add appends one (metric, node) run. offs and vals must be of equal
// length; an empty run is kept as one.
//
//efd:hotpath
func (r *JobRuns) Add(metric string, node int, offs []time.Duration, vals []float64) {
	for _, off := range offs {
		if off%time.Second == 0 {
			continue // divisible by every unit
		}
		for r.fine < maxUnitExp && int64(off)%pow10[maxUnitExp-r.fine] != 0 {
			r.fine++
		}
	}
	m := -1
	for i := len(r.metrics) - 1; i >= 0 && i >= len(r.metrics)-metricScan; i-- {
		if r.metrics[i] == metric {
			m = i
			break
		}
	}
	if m < 0 {
		m = len(r.metrics)
		r.metrics = append(r.metrics, metric)
	}
	r.runs = append(r.runs, jobRun{metric: m, node: node, offs: offs, vals: vals})
	r.samples += len(vals)
}

// Samples reports the samples added since the last record.
func (r *JobRuns) Samples() int { return r.samples }

// AppendPayload appends the job-runs record of the added runs to b:
// type byte, job, unit exponent, metric table, then per run the
// metric index, node, count, zigzag-varint offset deltas in the unit
// and raw float64 bits. The offset deltas start from zero and chain
// across the record's runs. It resets r.
//
//efd:hotpath
func (r *JobRuns) AppendPayload(b []byte, job string) []byte {
	exp := maxUnitExp - r.fine
	b = append(b, TypeJobRuns)
	b = AppendString(b, job)
	b = AppendUvarint(b, uint64(exp))
	b = AppendUvarint(b, uint64(len(r.metrics)))
	for _, m := range r.metrics {
		b = AppendString(b, m)
	}
	prev := int64(0)
	for i := range r.runs {
		run := &r.runs[i]
		b = AppendUvarint(b, uint64(run.metric))
		b = AppendUvarint(b, uint64(run.node))
		b = AppendUvarint(b, uint64(len(run.vals)))
		for _, off := range run.offs {
			v := int64(off / time.Second)
			if exp != maxUnitExp {
				v = int64(off) / pow10[exp]
			}
			b = AppendUvarint(b, Zigzag(v-prev))
			prev = v
		}
		for _, v := range run.vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	clear(r.runs) // drop the references to the callers' columns
	clear(r.metrics)
	r.runs, r.metrics, r.samples, r.fine = r.runs[:0], r.metrics[:0], 0, 0
	return b
}

// AppendFrame appends the job-runs record of the added runs to dst as
// one CRC frame, encoding the payload in place. It resets r.
//
//efd:hotpath
func (r *JobRuns) AppendFrame(dst []byte, job string) []byte {
	start := len(dst)
	var hdr [FrameHeaderLen]byte
	dst = r.AppendPayload(append(dst, hdr[:]...), job)
	PutFrameHeader(dst[start:], dst[start+FrameHeaderLen:])
	return dst
}

// AppendRegister appends a registration record's payload.
//
//efd:hotpath
func AppendRegister(b []byte, job string, nodes int) []byte {
	b = append(b, TypeRegister)
	b = AppendString(b, job)
	return AppendUvarint(b, uint64(nodes))
}

// AppendFinish appends a finish record's payload.
//
//efd:hotpath
func AppendFinish(b []byte, job string, seq uint64, label string) []byte {
	b = append(b, TypeFinish)
	b = AppendString(b, job)
	b = AppendUvarint(b, seq)
	return AppendString(b, label)
}

// AppendDrop appends a drop record's payload.
//
//efd:hotpath
func AppendDrop(b []byte, job string) []byte {
	b = append(b, TypeDrop)
	return AppendString(b, job)
}

// PutFrameHeader writes the frame header (length + CRC-32C) for
// payload into hdr, which must be at least FrameHeaderLen bytes — for
// writers that stream the header and payload separately.
//
//efd:hotpath
func PutFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, Castagnoli))
}

// AppendFrame appends the CRC frame header plus payload to dst.
//
//efd:hotpath
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, Castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Record is one decoded record; only the fields of its Type are set.
// A TypeRun record sets Metric, Node, Offs and Vals; a TypeJobRuns
// record sets Runs.
type Record struct {
	Type   byte
	Job    string
	Metric string
	Node   int
	Offs   []time.Duration
	Vals   []float64
	Runs   []Run
	Nodes  int
	Seq    uint64
	Label  string
}

// Run is one decoded (metric, node) sample run.
type Run struct {
	Metric  string
	Node    int
	Offsets []time.Duration
	Values  []float64
}

// decoder walks one payload. exp is the unit exponent of the offsets
// and prev the last offset in that unit, from which the next delta
// counts.
type decoder struct {
	b    []byte
	exp  int
	prev int64
}

//efd:hotpath
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errBadVarint
	}
	d.b = d.b[n:]
	return v, nil
}

// raw parses a length-prefixed string, returning a view of its bytes.
//
//efd:hotpath
func (d *decoder) raw() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, errTruncatedString
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s, nil
}

//efd:hotpath
func (d *decoder) str() (string, error) {
	s, err := d.raw()
	return string(s), err
}

//efd:hotpath
func (d *decoder) node() (int, error) {
	node, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if node > 1<<20 {
		return 0, errImplausibleNode(node)
	}
	return int(node), nil
}

// decodeColumns parses the count, offset-delta, and value sections of
// a run, appending into the provided scratch (which may be nil).
//
//efd:hotpath
func (d *decoder) decodeColumns(offs []time.Duration, vals []float64) ([]time.Duration, []float64, error) {
	count, err := d.uvarint()
	if err != nil {
		return nil, nil, err
	}
	// Every sample costs at least one offset byte and eight value
	// bytes, so count is bounded by a ninth of the remaining payload —
	// checked before the column allocations so a crafted length cannot
	// balloon the decoder's memory.
	if count > uint64(len(d.b))/9 {
		return nil, nil, errImplausibleRunLength(count)
	}
	n := int(count)
	unit := pow10[d.exp]
	lim := int64(math.MaxInt64) / unit
	for i := 0; i < n; i++ {
		dv, err := d.uvarint()
		if err != nil {
			return nil, nil, err
		}
		d.prev += Unzigzag(dv)
		off := d.prev
		if unit > 1 {
			if off > lim || off < -lim {
				return nil, nil, errOffsetRange(off, d.exp)
			}
			off *= unit
		}
		offs = append(offs, time.Duration(off))
	}
	if len(d.b) < 8*n {
		return nil, nil, errTruncatedValues
	}
	for i := 0; i < n; i++ {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:])))
	}
	d.b = d.b[8*n:]
	return offs, vals, nil
}

//efd:hotpath
func (d *decoder) finish() error {
	if len(d.b) != 0 {
		return errTrailingBytes(len(d.b))
	}
	return nil
}

// DecodeRecord parses one framed payload. The returned record's
// columns are freshly allocated (they outlive the frame buffer).
//
//efd:hotpath
func DecodeRecord(payload []byte) (Record, error) {
	rec, d, err := decodeHead(payload)
	if err != nil {
		return rec, err
	}
	switch rec.Type {
	case TypeRegister:
		n, err := d.uvarint()
		if err != nil {
			return rec, err
		}
		if n == 0 || n > 1<<20 {
			return rec, errImplausibleNodeCount(n)
		}
		rec.Nodes = int(n)
	case TypeRun:
		if err := decodeRunBody(&rec, d); err != nil {
			return rec, err
		}
	case TypeJobRuns:
		var a Arena
		if err := a.decodeJobRuns(d); err != nil {
			return rec, err
		}
		rec.Runs = a.Runs
	case TypeFinish:
		if rec.Seq, err = d.uvarint(); err != nil {
			return rec, err
		}
		if rec.Label, err = d.str(); err != nil {
			return rec, err
		}
	case TypeDrop:
		// job only
	default:
		return rec, errUnknownType(rec.Type)
	}
	return rec, d.finish()
}

//efd:hotpath
func decodeHead(payload []byte) (Record, *decoder, error) {
	if len(payload) == 0 {
		return Record{}, nil, errEmptyRecord
	}
	rec := Record{Type: payload[0]}
	d := &decoder{b: payload[1:]}
	var err error
	if rec.Job, err = d.str(); err != nil {
		return rec, d, err
	}
	return rec, d, nil
}

//efd:hotpath
func decodeRunBody(rec *Record, d *decoder) error {
	var err error
	if rec.Metric, err = d.str(); err != nil {
		return err
	}
	if rec.Node, err = d.node(); err != nil {
		return err
	}
	rec.Offs, rec.Vals, err = d.decodeColumns(nil, nil)
	return err
}

// DecodeRunInto parses one TypeRun payload, appending the columns
// into the provided scratch slices (reset them with [:0] between
// calls). Other records, TypeJobRuns included, are an error; Arena
// decodes both run records.
//
//efd:hotpath
func DecodeRunInto(payload []byte, offs []time.Duration, vals []float64) (rec Record, err error) {
	var d *decoder
	rec, d, err = decodeHead(payload)
	if err != nil {
		return rec, err
	}
	if rec.Type != TypeRun {
		return rec, errNotRun(rec.Type)
	}
	if rec.Metric, err = d.str(); err != nil {
		return rec, err
	}
	if rec.Node, err = d.node(); err != nil {
		return rec, err
	}
	if rec.Offs, rec.Vals, err = d.decodeColumns(offs, vals); err != nil {
		return rec, err
	}
	return rec, d.finish()
}

// Arena is reusable decode scratch for the two run records, TypeRun
// and TypeJobRuns: Decode appends runs to Runs and their columns to
// Offs and Vals, so a warmed arena decodes without growing. Decoded
// runs alias the arena until Reset.
type Arena struct {
	Runs []Run
	Offs []time.Duration
	Vals []float64
	// table is the last job-runs record's metric table. The next
	// record reuses an entry's string when it names the same metric
	// at the same index, so a feeder's names decode without
	// allocating after its first record.
	table []string
}

// Reset empties the arena, keeping its capacity and its last metric
// table.
func (a *Arena) Reset() {
	clear(a.Runs)
	a.Runs, a.Offs, a.Vals = a.Runs[:0], a.Offs[:0], a.Vals[:0]
}

// Decode parses one TypeRun or TypeJobRuns payload into the arena and
// returns the record's job and runs (the tail of a.Runs). Metric names
// cost one string per table entry at most, however many runs share
// them. Other record types are an error.
//
//efd:hotpath
func (a *Arena) Decode(payload []byte) (job string, runs []Run, err error) {
	if len(payload) == 0 {
		return "", nil, errEmptyRecord
	}
	// A decoder on the stack: decodeHead's escapes, one allocation per
	// record.
	d := &decoder{b: payload[1:]}
	if job, err = d.str(); err != nil {
		return "", nil, err
	}
	first := len(a.Runs)
	switch payload[0] {
	case TypeRun:
		var metric string
		if metric, err = d.str(); err == nil {
			err = a.decodeRun(d, metric)
		}
	case TypeJobRuns:
		err = a.decodeJobRuns(d)
	default:
		err = errNotRun(payload[0])
	}
	if err == nil {
		err = d.finish()
	}
	if err != nil {
		return "", nil, err
	}
	return job, a.Runs[first:], nil
}

// decodeJobRuns parses a job-runs body after the job: unit, metric
// table, runs.
//
//efd:hotpath
func (a *Arena) decodeJobRuns(d *decoder) error {
	exp, err := d.uvarint()
	if err != nil {
		return err
	}
	if exp > uint64(maxUnitExp) {
		return errBadUnit(exp)
	}
	d.exp = int(exp)
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	// Every table entry costs at least its length byte.
	if n > uint64(len(d.b)) {
		return errImplausibleTable(n)
	}
	for i := 0; i < int(n); i++ {
		name, err := d.raw()
		if err != nil {
			return err
		}
		switch {
		case i == len(a.table):
			a.table = append(a.table, string(name))
		case a.table[i] != string(name):
			a.table[i] = string(name)
		}
	}
	a.table = a.table[:n]
	for len(d.b) > 0 {
		m, err := d.uvarint()
		if err != nil {
			return err
		}
		if m >= n {
			return errMetricIndex(m, n)
		}
		if err := a.decodeRun(d, a.table[m]); err != nil {
			return err
		}
	}
	return nil
}

// decodeRun parses a run's node and columns onto the arena tails.
//
//efd:hotpath
func (a *Arena) decodeRun(d *decoder, metric string) error {
	node, err := d.node()
	if err != nil {
		return err
	}
	o, v := len(a.Offs), len(a.Vals)
	if a.Offs, a.Vals, err = d.decodeColumns(a.Offs, a.Vals); err != nil {
		return err
	}
	a.Runs = append(a.Runs, Run{Metric: metric, Node: node,
		Offsets: a.Offs[o:len(a.Offs):len(a.Offs)], Values: a.Vals[v:len(a.Vals):len(a.Vals)]})
	return nil
}

// WalkFrames iterates the CRC-framed records in data, invoking apply
// with each intact payload, and returns the byte length of the good
// prefix plus the number of frames walked. Walking stops at the first
// torn or corrupt frame — or at apply's first error, which is returned
// with good pointing at the start of the frame that failed (so a WAL
// replayer can quarantine from exactly there).
//
//efd:hotpath
func WalkFrames(data []byte, apply func(payload []byte) error) (good int64, frames int64, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < FrameHeaderLen {
			return int64(off), frames, errTornHeader(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecord || len(data)-off-FrameHeaderLen < n {
			return int64(off), frames, errTornRecord(off, n)
		}
		payload := data[off+FrameHeaderLen : off+FrameHeaderLen+n]
		if crc32.Checksum(payload, Castagnoli) != crc {
			return int64(off), frames, errCRCMismatch(off)
		}
		if err := apply(payload); err != nil {
			return int64(off), frames, err
		}
		off += FrameHeaderLen + n
		frames++
	}
	return int64(off), frames, nil
}
