package wire

import (
	"errors"
	"fmt"
)

// Cold error constructors. The encode/decode bodies are //efd:hotpath
// — one fmt.Errorf inline would put a formatting allocation (and its
// variadic boxing) on the per-frame path even when it never runs, and
// efdvet's hotpath rule flags it. Corrupt input is the only consumer
// of these, so the formatting cost moves entirely onto the cold path.
// Each constructor carries //efd:coldpath: the hotpath contract is
// transitive through the call graph, and the marker is the reviewed,
// written-down record that these branches are deliberately cold.
// Argument-free errors are plain sentinels; errors.Is works across
// all of them either way.

var (
	errBadVarint       = errors.New("wire: bad varint in record")
	errTruncatedString = errors.New("wire: truncated string in record")
	errTruncatedValues = errors.New("wire: truncated value column")
	errEmptyRecord     = errors.New("wire: empty record")
)

//efd:coldpath
func errTrailingBytes(n int) error {
	return fmt.Errorf("wire: %d trailing bytes in record", n)
}

//efd:coldpath
func errImplausibleRunLength(count uint64) error {
	return fmt.Errorf("wire: implausible run length %d", count)
}

//efd:coldpath
func errImplausibleNodeCount(n uint64) error {
	return fmt.Errorf("wire: implausible node count %d", n)
}

//efd:coldpath
func errImplausibleNode(node uint64) error {
	return fmt.Errorf("wire: implausible node %d", node)
}

//efd:coldpath
func errBadUnit(exp uint64) error {
	return fmt.Errorf("wire: offset unit 10^%d ns out of range", exp)
}

//efd:coldpath
func errImplausibleTable(n uint64) error {
	return fmt.Errorf("wire: implausible metric table length %d", n)
}

//efd:coldpath
func errMetricIndex(m, n uint64) error {
	return fmt.Errorf("wire: metric index %d past a table of %d", m, n)
}

//efd:coldpath
func errOffsetRange(v int64, exp int) error {
	return fmt.Errorf("wire: offset %d × 10^%d ns overflows", v, exp)
}

//efd:coldpath
func errUnknownType(t byte) error {
	return fmt.Errorf("wire: unknown record type %d", t)
}

//efd:coldpath
func errNotRun(t byte) error {
	return fmt.Errorf("wire: record type %d where run expected", t)
}

//efd:coldpath
func errTornHeader(off int) error {
	return fmt.Errorf("wire: torn frame header at %d", off)
}

//efd:coldpath
func errTornRecord(off, n int) error {
	return fmt.Errorf("wire: torn record at %d (%d bytes framed)", off, n)
}

//efd:coldpath
func errCRCMismatch(off int) error {
	return fmt.Errorf("wire: CRC mismatch at %d", off)
}
