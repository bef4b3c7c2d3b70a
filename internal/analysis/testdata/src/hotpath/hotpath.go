// Package hotpath exercises the hotpath analyzer: the rules bind only
// inside functions whose doc comment carries the //efd:hotpath
// marker.
package hotpath

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/obs"
)

// decode is a marked hot function: every allocating idiom below is
// flagged.
//
//efd:hotpath
func decode(name, field string, n int) (string, error) {
	if n < 0 {
		return "", fmt.Errorf("bad count %d", n) // want `fmt.Errorf in a hot path allocates`
	}
	start := time.Now() // want `time.Now in a hot path costs a clock read`
	_ = start
	key := name + ":" + field // want `string concatenation allocates in a hot path`
	key += "!"                // want `string \+= allocates in a hot path`
	seen := map[string]int{}  // want `map literal allocates in a hot path`
	seen[key] = n
	idx := make(map[string]int, n) // want `map allocation \(make\) in a hot path`
	_ = idx
	buf := make([]byte, 0, n)
	buf = append(buf, key...)
	const prefix = "efd" + ":"
	_ = prefix
	return key, nil
}

// observe is a marked hot function exercising the observability
// rules: the obs instrument fast paths stay legal, everything else in
// the kit — and any slog call — is flagged.
//
//efd:hotpath
func observe(log *slog.Logger, reg *obs.Registry, c *obs.Counter, h *obs.Histogram, v float64) int64 {
	c.Add(1)
	h.Observe(v)
	log.Info("observed", "v", v)              // want `slog.Info in a hot path allocates`
	slog.Warn("observed")                     // want `slog.Warn in a hot path allocates`
	_ = reg.Counter("x_total", "", "a count") // want `obs.Counter in a hot path allocates`
	return c.Value() + h.Count()
}

// format is cold — no marker, so fmt stays legal here; so are slog
// and obs registration.
func format(log *slog.Logger, reg *obs.Registry, n int) string {
	log.Info("formatting", "n", n)
	reg.Counter("format_total", "", "calls").Add(1)
	return fmt.Sprintf("%d", n)
}

var _ = decode
var _ = observe
var _ = format
