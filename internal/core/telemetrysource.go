package core

import "repro/internal/telemetry"

// TelemetrySource adapts raw telemetry (a NodeSet of 1 Hz series) to
// the WindowSource interface, so the recognizer operates directly on
// collected series.
type TelemetrySource struct {
	NS *telemetry.NodeSet

	nodes []int
}

// NewTelemetrySource wraps raw telemetry for recognition.
func NewTelemetrySource(ns *telemetry.NodeSet) *TelemetrySource {
	return &TelemetrySource{NS: ns, nodes: ns.Nodes()}
}

// WindowMean implements WindowSource over the raw series.
func (t *TelemetrySource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	s := t.NS.Get(node, metric)
	if s == nil {
		return 0, false
	}
	mean, err := s.WindowMean(w)
	if err != nil {
		return 0, false
	}
	return mean, true
}

// NodeCount implements WindowSource.
func (t *TelemetrySource) NodeCount() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.nodes[len(t.nodes)-1] + 1
}
