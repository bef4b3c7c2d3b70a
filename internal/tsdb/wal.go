package tsdb

// The write-ahead log. Every mutation the store acknowledges is first
// appended here as CRC-framed records in the shared EFD columnar
// binary encoding — see internal/wire for the frame and record layout
// (the same codec the HTTP binary ingest content type speaks, so a
// batch decoded off the network re-encodes for the WAL bit-exactly).
// Sample runs are written as job-runs records, one per job-level
// append; TypeRun records from older logs still replay.
//
// Appends go through one buffered writer guarded by the store mutex;
// Commit flushes and fsyncs once per acknowledged batch, and a
// generation counter turns back-to-back Commits with no intervening
// append into no-ops (group commit). Replay walks frames until the
// first torn or corrupt one, quarantines everything from it onward
// into wal.quarantine, and truncates the log back to the last good
// frame — the tail beyond the last fsync is exactly what crash
// recovery is allowed to lose, and it is never silently skipped over.

import (
	"bufio"
	"os"
	"path/filepath"

	"repro/internal/vfs"
	"repro/internal/wire"
)

const (
	walName        = "wal.log"
	walQuarantine  = "wal.quarantine"
	frameHeaderLen = wire.FrameHeaderLen
)

// Record types (re-exported from the shared wire codec). The store
// writes job-runs records; TypeRun records are replayed from WALs
// written before them.
const (
	recRegister = wire.TypeRegister
	recRun      = wire.TypeRun
	recFinish   = wire.TypeFinish
	recDrop     = wire.TypeDrop
	recJobRuns  = wire.TypeJobRuns
)

// castagnoli is the CRC-32C table shared with the segment writer.
var castagnoli = wire.Castagnoli

// wal is the appender half; replay is a free function over raw bytes.
type wal struct {
	f    vfs.File
	bw   *bufio.Writer
	size int64 // logical file size including buffered bytes

	appendGen uint64
	syncGen   uint64

	scratch []byte // reused record encode buffer
}

func openWAL(fs vfs.FS, path string) (*wal, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, bw: bufio.NewWriterSize(f, 1<<16), size: st.Size()}, nil
}

// append frames and buffers one payload. The payload is w.scratch.
func (w *wal) append() error {
	var hdr [frameHeaderLen]byte
	wire.PutFrameHeader(hdr[:], w.scratch)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	w.size += int64(frameHeaderLen + len(w.scratch))
	w.appendGen++
	return nil
}

// appendFrames buffers already-framed records.
func (w *wal) appendFrames(frames []byte, records int64) error {
	if _, err := w.bw.Write(frames); err != nil {
		return err
	}
	w.size += int64(len(frames))
	w.appendGen += uint64(records)
	return nil
}

// sync flushes the buffer and fsyncs, unless nothing was appended
// since the last sync (group commit).
func (w *wal) sync() error {
	if w.syncGen == w.appendGen {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncGen = w.appendGen
	return nil
}

func (w *wal) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// --- record encoding (thin wrappers over internal/wire) ---------------

// appendJobFrames appends runs 0..n-1 of job (run(i) reports run i)
// to dst as framed job-runs records of at most walRunChunk samples
// each, splitting a longer run across records, and returns the grown
// buffer and the record count. Empty runs are skipped: they change
// no series. It is a free function over plain buffers so the ingest
// path can encode outside the store mutex.
func appendJobFrames(dst []byte, enc *wire.JobRuns, job string, n int, run RunAt) ([]byte, int64) {
	var records int64
	for i := 0; i < n; i++ {
		metric, node, offs, vals := run(i)
		for len(vals) > 0 {
			k := min(len(vals), walRunChunk-enc.Samples())
			enc.Add(metric, node, offs[:k], vals[:k])
			offs, vals = offs[k:], vals[k:]
			if enc.Samples() == walRunChunk {
				dst = enc.AppendFrame(dst, job)
				records++
			}
		}
	}
	if enc.Samples() > 0 {
		dst = enc.AppendFrame(dst, job)
		records++
	}
	return dst, records
}

func (w *wal) encodeRegister(job string, nodes int) {
	w.scratch = wire.AppendRegister(w.scratch[:0], job, nodes)
}

func (w *wal) encodeFinish(job string, seq uint64, label string) {
	w.scratch = wire.AppendFinish(w.scratch[:0], job, seq, label)
}

func (w *wal) encodeDrop(job string) {
	w.scratch = wire.AppendDrop(w.scratch[:0], job)
}

// --- record decoding --------------------------------------------------

// walRecord is one decoded record; only the fields of its Type are set.
type walRecord = wire.Record

// replayWAL walks the log, invoking apply for every intact record, and
// returns the byte length of the good prefix plus the number of
// replayed records. Decoding stops at the first torn or corrupt frame
// (a frame that passes CRC but does not decode is corruption beyond a
// torn tail and stops replay equally); the caller quarantines and
// truncates from there.
func replayWAL(data []byte, apply func(walRecord)) (good int64, records int64, err error) {
	return wire.WalkFrames(data, func(payload []byte) error {
		rec, derr := wire.DecodeRecord(payload)
		if derr != nil {
			return derr
		}
		apply(rec)
		return nil
	})
}

// quarantineTail moves data[good:] into dir/wal.quarantine (appending
// a fresh section each time) and truncates the WAL file to good.
func quarantineTail(fs vfs.FS, dir, walPath string, data []byte, good int64) (int64, error) {
	tail := data[good:]
	qf, err := fs.OpenFile(filepath.Join(dir, walQuarantine), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := qf.Write(tail); err != nil {
		qf.Close()
		return 0, err
	}
	if err := qf.Sync(); err != nil {
		qf.Close()
		return 0, err
	}
	if err := qf.Close(); err != nil {
		return 0, err
	}
	if err := fs.Truncate(walPath, good); err != nil {
		return 0, err
	}
	return int64(len(tail)), nil
}
