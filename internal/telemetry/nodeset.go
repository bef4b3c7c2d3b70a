package telemetry

import (
	"sort"
	"time"
)

// NodeSet holds the telemetry of one execution: for every participating
// node, a set of metric series. It is the unit the recognizer consumes;
// after ingest out of time order, Sort it before querying windows.
type NodeSet struct {
	// series is indexed by node, then by metric name.
	series map[int]map[string]*Series
}

// NewNodeSet returns an empty NodeSet.
func NewNodeSet() *NodeSet {
	return &NodeSet{series: make(map[int]map[string]*Series)}
}

// Put stores a series, replacing any existing series for the same
// (node, metric) pair.
func (ns *NodeSet) Put(s *Series) {
	m, ok := ns.series[s.Node]
	if !ok {
		m = make(map[string]*Series)
		ns.series[s.Node] = m
	}
	m[s.Metric] = s
}

// Get returns the series for (node, metric), or nil when absent.
func (ns *NodeSet) Get(node int, metric string) *Series {
	m, ok := ns.series[node]
	if !ok {
		return nil
	}
	return m[metric]
}

// Nodes returns the sorted node IDs present in the set.
func (ns *NodeSet) Nodes() []int {
	out := make([]int, 0, len(ns.series))
	for n := range ns.series {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Metrics returns the sorted union of metric names across all nodes.
func (ns *NodeSet) Metrics() []string {
	seen := make(map[string]bool)
	for _, m := range ns.series {
		for name := range m {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sort sorts every series flagged unsorted (see Series.Sort), so each
// answers window queries. Like Series.Sort it requires exclusive
// access: sort once after ingest, then share for concurrent reads.
func (ns *NodeSet) Sort() {
	for _, m := range ns.series {
		for _, s := range m {
			if !s.Sorted() {
				s.Sort()
			}
		}
	}
}

// NumSeries reports the total number of stored series.
func (ns *NodeSet) NumSeries() int {
	n := 0
	for _, m := range ns.series {
		n += len(m)
	}
	return n
}

// Duration reports the longest series duration in the set.
func (ns *NodeSet) Duration() time.Duration {
	var d time.Duration
	for _, m := range ns.series {
		for _, s := range m {
			if sd := s.Duration(); sd > d {
				d = sd
			}
		}
	}
	return d
}
