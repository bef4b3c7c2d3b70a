package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// rampTelemetry builds raw telemetry whose value is level during
// [realStart+60, realStart+120) and level+1000 elsewhere, so a
// misaligned window produces a visibly different mean.
func rampTelemetry(level float64, nodes int, realStart, total time.Duration) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	for node := 0; node < nodes; node++ {
		s := telemetry.NewSeries(apps.HeadlineMetric, node, int(total/time.Second))
		for t := time.Duration(0); t <= total; t += time.Second {
			v := level + 1000
			rel := t - realStart
			if rel >= 60*time.Second && rel < 120*time.Second {
				v = level
			}
			s.Append(t, v)
		}
		ns.Put(s)
	}
	return ns
}

func TestTelemetrySourceBasics(t *testing.T) {
	ns := rampTelemetry(6000, 2, 0, 200*time.Second)
	src := NewTelemetrySource(ns)
	if src.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", src.NodeCount())
	}
	mean, ok := src.WindowMean(apps.HeadlineMetric, 0, telemetry.PaperWindow)
	if !ok || mean != 6000 {
		t.Fatalf("WindowMean = %v ok=%v, want 6000", mean, ok)
	}
	if _, ok := src.WindowMean("nope", 0, telemetry.PaperWindow); ok {
		t.Error("unknown metric should yield no mean")
	}
}
