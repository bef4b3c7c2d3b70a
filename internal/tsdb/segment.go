package tsdb

// Immutable columnar segment files. A segment holds the telemetry of
// one or more finished executions in exactly the SoA layout of
// telemetry.Series, so a memory-mapped segment can hand the value
// columns to NewSeriesFromColumns without copying a byte:
//
//	[8B magic "EFDTSDB1"]
//	per series: value column  (count × 8B little-endian float64 bits)
//	            offset column (count × 8B little-endian int64 ns),
//	            omitted entirely for implicit-1 Hz-grid series
//	[JSON footer: executions → series index with offsets and per-block
//	 CRC-32Cs]
//	[8B footer offset][4B footer length][4B footer CRC][8B magic "EFDTSDBF"]
//
// The header is 8 bytes and every column a multiple of 8, so every
// column begins 8-byte aligned within the file; with a page-aligned
// mmap base the float64/int64 views cast straight out of the mapping.
// Writers build segments as a temp file, fsync, and rename into place
// (then fsync the directory), so a segment either exists completely or
// not at all under crash; per-block CRCs catch bit rot afterwards.
// Files that fail any structural or checksum test are quarantined
// (renamed *.corrupt) rather than opened.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"time"
	"unsafe"

	"repro/internal/telemetry"
	"repro/internal/vfs"
)

const (
	segMagicHead = "EFDTSDB1"
	segMagicFoot = "EFDTSDBF"
	segTrailLen  = 24
	segPrefix    = "seg-"
	segSuffix    = ".seg"
)

// segSeries indexes one series block inside a segment.
type segSeries struct {
	Metric string `json:"metric"`
	Node   int    `json:"node"`
	Count  int    `json:"count"`
	ValOff int64  `json:"val_off"`
	ValCRC uint32 `json:"val_crc"`
	// OffOff is -1 for implicit-grid series (no offset column stored).
	OffOff int64  `json:"off_off"`
	OffCRC uint32 `json:"off_crc"`
}

// segExec indexes one stored execution.
type segExec struct {
	Job     string      `json:"job"`
	Label   string      `json:"label,omitempty"`
	Nodes   int         `json:"nodes"`
	Seq     uint64      `json:"seq"`
	Samples int64       `json:"samples"`
	Series  []segSeries `json:"series"`
}

type segFooter struct {
	Execs []segExec `json:"execs"`
}

// segment is one opened (mapped) segment file.
type segment struct {
	path   string
	m      *vfs.Mapping
	footer segFooter
}

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// writeSegment renders execs into path atomically (temp file + fsync +
// rename + directory fsync).
func writeSegment(fs vfs.FS, dir, name string, execs []*jobMem) (err error) {
	tmp, err := fs.CreateTemp(dir, segPrefix+"*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fs.Remove(tmp.Name())
		}
	}()
	if _, err = io.WriteString(tmp, segMagicHead); err != nil {
		return err
	}
	off := int64(len(segMagicHead))
	var footer segFooter
	raw := make([]byte, 0, 1<<16)
	for _, jm := range execs {
		se := segExec{Job: jm.id, Label: jm.label, Nodes: jm.nodes, Seq: jm.seq, Samples: jm.samples}
		for _, ms := range jm.series {
			ss := segSeries{Metric: ms.Metric, Node: ms.Node, Count: ms.Len(), OffOff: -1}
			raw = raw[:0]
			for _, v := range ms.ValuesView() {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
			}
			ss.ValOff = off
			ss.ValCRC = crc32.Checksum(raw, castagnoli)
			if _, err = tmp.Write(raw); err != nil {
				return err
			}
			off += int64(len(raw))
			if offs := ms.OffsetsView(); offs != nil {
				raw = raw[:0]
				for _, o := range offs {
					raw = binary.LittleEndian.AppendUint64(raw, uint64(o))
				}
				ss.OffOff = off
				ss.OffCRC = crc32.Checksum(raw, castagnoli)
				if _, err = tmp.Write(raw); err != nil {
					return err
				}
				off += int64(len(raw))
			}
			se.Series = append(se.Series, ss)
		}
		footer.Execs = append(footer.Execs, se)
	}
	foot, err := json.Marshal(footer)
	if err != nil {
		return err
	}
	if _, err = tmp.Write(foot); err != nil {
		return err
	}
	var trail [segTrailLen]byte
	binary.LittleEndian.PutUint64(trail[0:], uint64(off))
	binary.LittleEndian.PutUint32(trail[8:], uint32(len(foot)))
	binary.LittleEndian.PutUint32(trail[12:], crc32.Checksum(foot, castagnoli))
	copy(trail[16:], segMagicFoot)
	if _, err = tmp.Write(trail[:]); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fs.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// errSegIO marks an openSegment failure that came from the I/O layer
// (the open/map itself) rather than from validating the mapped bytes.
// Recovery retries the former — a transient EIO must not quarantine a
// good segment — while validation failures decode identically every
// attempt and quarantine immediately.
var errSegIO = errors.New("tsdb: segment I/O")

// openSegment maps and fully validates one segment file: header and
// trailer magic, footer CRC and bounds, and every block's CRC and
// alignment. Any failure returns an error and the caller quarantines
// the file.
func openSegment(fs vfs.FS, path string) (*segment, error) {
	m, err := fs.MapFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errSegIO, err)
	}
	g := &segment{path: path, m: m}
	if err := g.validate(); err != nil {
		m.Close()
		return nil, err
	}
	return g, nil
}

func (g *segment) validate() error {
	data := g.m.Data
	if len(data) < len(segMagicHead)+segTrailLen {
		return fmt.Errorf("tsdb: segment %s truncated (%d bytes)", g.path, len(data))
	}
	if string(data[:len(segMagicHead)]) != segMagicHead {
		return fmt.Errorf("tsdb: segment %s bad header magic", g.path)
	}
	trail := data[len(data)-segTrailLen:]
	if string(trail[16:]) != segMagicFoot {
		return fmt.Errorf("tsdb: segment %s bad trailer magic", g.path)
	}
	footOff := int64(binary.LittleEndian.Uint64(trail[0:]))
	footLen := int64(binary.LittleEndian.Uint32(trail[8:]))
	footCRC := binary.LittleEndian.Uint32(trail[12:])
	if footOff < int64(len(segMagicHead)) || footOff+footLen != int64(len(data)-segTrailLen) {
		return fmt.Errorf("tsdb: segment %s footer bounds out of range", g.path)
	}
	foot := data[footOff : footOff+footLen]
	if crc32.Checksum(foot, castagnoli) != footCRC {
		return fmt.Errorf("tsdb: segment %s footer CRC mismatch", g.path)
	}
	if err := json.Unmarshal(foot, &g.footer); err != nil {
		return fmt.Errorf("tsdb: segment %s footer: %w", g.path, err)
	}
	for ei := range g.footer.Execs {
		e := &g.footer.Execs[ei]
		if e.Job == "" {
			return fmt.Errorf("tsdb: segment %s exec %d has empty job ID", g.path, ei)
		}
		for si := range e.Series {
			s := &e.Series[si]
			if err := g.checkBlock(s.ValOff, s.Count, s.ValCRC, footOff); err != nil {
				return fmt.Errorf("tsdb: segment %s %s/%s[%d] values: %w", g.path, e.Job, s.Metric, s.Node, err)
			}
			if s.OffOff != -1 {
				if err := g.checkBlock(s.OffOff, s.Count, s.OffCRC, footOff); err != nil {
					return fmt.Errorf("tsdb: segment %s %s/%s[%d] offsets: %w", g.path, e.Job, s.Metric, s.Node, err)
				}
			}
		}
	}
	return nil
}

// checkBlock bounds-checks and CRC-verifies one 8-byte-stride column.
func (g *segment) checkBlock(off int64, count int, crc uint32, footOff int64) error {
	if count < 0 || off < int64(len(segMagicHead)) || off%8 != 0 {
		return fmt.Errorf("bad block bounds (off %d, count %d)", off, count)
	}
	end := off + 8*int64(count)
	if end < off || end > footOff {
		return fmt.Errorf("block overruns footer (off %d, count %d)", off, count)
	}
	if got := crc32.Checksum(g.m.Data[off:end], castagnoli); got != crc {
		return fmt.Errorf("CRC mismatch (got %08x, want %08x)", got, crc)
	}
	return nil
}

// floatView casts the column at [off, off+8·count) to a []float64
// without copying. validate has already established bounds and
// alignment; the mmap base is page-aligned, so off%8 == 0 makes the
// cast aligned.
func (g *segment) floatView(off int64, count int) []float64 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&g.m.Data[off])), count)
}

func (g *segment) durView(off int64, count int) []time.Duration {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*time.Duration)(unsafe.Pointer(&g.m.Data[off])), count)
}

// nodeSet materializes one stored execution as a telemetry NodeSet.
// Value columns are handed to the series as views into the mapping —
// zero copies, and the mapped columns are never written — so window
// queries scan the mapped data and match the in-memory series bit for
// bit. The NodeSet is valid for the lifetime of the store that owns
// the mapping.
func (g *segment) nodeSet(e *segExec) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	for si := range e.Series {
		ss := &e.Series[si]
		vals := g.floatView(ss.ValOff, ss.Count)
		var offs []time.Duration
		if ss.OffOff != -1 {
			offs = g.durView(ss.OffOff, ss.Count)
		}
		s := telemetry.NewSeriesFromColumns(ss.Metric, ss.Node, offs, vals)
		if !s.Sorted() {
			// Flush writes sorted columns, so this only happens for a
			// hand-crafted file whose CRCs still pass. Sorting would
			// write through the read-only mapping; fall back to a
			// private copy of the columns instead.
			s = telemetry.NewSeriesFromColumns(ss.Metric, ss.Node,
				append([]time.Duration(nil), offs...), append([]float64(nil), vals...))
			s.Sort()
		}
		ns.Put(s)
	}
	return ns
}

// exec returns the stored execution with the given job ID and the
// highest sequence number in this segment, or nil.
func (g *segment) exec(job string) *segExec {
	var best *segExec
	for i := range g.footer.Execs {
		e := &g.footer.Execs[i]
		if e.Job == job && (best == nil || e.Seq > best.Seq) {
			best = e
		}
	}
	return best
}

func (g *segment) close() error {
	return g.m.Close()
}
