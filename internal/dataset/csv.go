package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// csvStatCols are the full-summary columns, matching stats.Summary.
var csvStatCols = []string{
	"count", "mean", "std", "min", "max", "skew", "kurtosis",
	"p5", "p25", "p50", "p75", "p95",
}

// SaveCSV writes the summarized dataset as one CSV: a row per
// (execution, metric, node) carrying the full-window summary and the
// per-window means. Floats use the shortest round-trippable form, so a
// load reproduces bit-identical fingerprints.
func (d *Dataset) SaveCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"exec_id", "app", "input", "num_nodes", "duration_s", "metric", "node"}
	header = append(header, csvStatCols...)
	for _, win := range d.Windows {
		header = append(header, "mean"+win.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, e := range d.Executions {
		metrics := e.Metrics()
		for _, m := range metrics {
			for node, nms := range e.Stats[m] {
				rec := []string{
					strconv.Itoa(e.ID),
					e.Label.App,
					string(e.Label.Input),
					strconv.Itoa(e.NumNodes),
					g(e.Duration.Seconds()),
					m,
					strconv.Itoa(node),
					strconv.Itoa(nms.Full.Count),
					g(nms.Full.Mean), g(nms.Full.StdDev), g(nms.Full.Min), g(nms.Full.Max),
					g(nms.Full.Skewness), g(nms.Full.Kurtosis),
					g(nms.Full.P5), g(nms.Full.P25), g(nms.Full.P50), g(nms.Full.P75), g(nms.Full.P95),
				}
				for _, win := range d.Windows {
					if v, ok := nms.mean(win); ok {
						rec = append(rec, g(v))
					} else {
						rec = append(rec, "")
					}
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSV reads a dataset written by SaveCSV.
func LoadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read CSV header: %w", err)
	}
	fixed := 7 + len(csvStatCols)
	if len(header) < fixed {
		return nil, fmt.Errorf("dataset: CSV header too short (%d columns)", len(header))
	}
	var windows []telemetry.Window
	for _, col := range header[fixed:] {
		if len(col) < 5 || col[:4] != "mean" {
			return nil, fmt.Errorf("dataset: unexpected window column %q", col)
		}
		w, err := telemetry.ParseWindow(col[4:])
		if err != nil {
			return nil, err
		}
		windows = append(windows, w)
	}

	byID := make(map[int]*Execution)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
		bad := func(field string, err error) error {
			return fmt.Errorf("dataset: CSV line %d field %s: %w", line, field, err)
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, bad("exec_id", err)
		}
		numNodes, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, bad("num_nodes", err)
		}
		durS, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, bad("duration_s", err)
		}
		node, err := strconv.Atoi(rec[6])
		if err != nil {
			return nil, bad("node", err)
		}
		if node < 0 || node >= numNodes {
			return nil, fmt.Errorf("dataset: CSV line %d: node %d out of range [0,%d)",
				line, node, numNodes)
		}
		e, ok := byID[id]
		if !ok {
			e = &Execution{
				ID:       id,
				Label:    apps.Label{App: rec[1], Input: apps.Input(rec[2])},
				NumNodes: numNodes,
				Duration: time.Duration(durS * float64(time.Second)),
				Stats:    make(map[string][]NodeMetricStats),
			}
			byID[id] = e
		}
		metric := rec[5]
		per, ok := e.Stats[metric]
		if !ok {
			per = make([]NodeMetricStats, numNodes)
			e.Stats[metric] = per
		}
		var s stats.Summary
		s.Count, err = strconv.Atoi(rec[7])
		if err != nil {
			return nil, bad("count", err)
		}
		fs := make([]float64, 11)
		for i := 0; i < 11; i++ {
			fs[i], err = strconv.ParseFloat(rec[8+i], 64)
			if err != nil {
				return nil, bad(csvStatCols[i+1], err)
			}
		}
		s.Mean, s.StdDev, s.Min, s.Max = fs[0], fs[1], fs[2], fs[3]
		s.Skewness, s.Kurtosis = fs[4], fs[5]
		s.P5, s.P25, s.P50, s.P75, s.P95 = fs[6], fs[7], fs[8], fs[9], fs[10]
		nms := NodeMetricStats{Full: s, Means: make([]WindowMean, 0, len(windows))}
		for wi, win := range windows {
			cell := rec[fixed+wi]
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, bad("mean"+win.String(), err)
			}
			nms.Means = append(nms.Means, WindowMean{Window: win, Mean: v})
		}
		per[node] = nms
	}

	ds := &Dataset{Windows: windows}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ds.Executions = append(ds.Executions, byID[id])
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}
