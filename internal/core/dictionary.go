package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// Dictionary is the Execution Fingerprint Dictionary: a hash table from
// fingerprints to the set of (application, input size) labels whose
// training executions produced them. Keys are unique; a key observed
// under several labels accumulates all of them — that is the collision
// case discussed in §5 of the paper (e.g. SP and BT at rounding
// depth 2).
//
// Internally the dictionary does not store the public 3-string
// Fingerprint form. Metric names, window encodings, application names
// and labels are interned into small integer IDs at construction and
// learning time, and entries live in per-(metric, window, node) buckets
// keyed only by the canonical mean encoding. The public Fingerprint is
// converted to and from that compact space at the API boundary (AddN,
// Entries, Save/Load), which keeps the recognition hot path free of
// string formatting and per-call map allocation.
//
// Concurrency contract: a Dictionary is single-writer. Concurrent
// Recognize/Stats/Save calls are safe with each other but not with any
// mutation (Learn, AddN). Services that mix online learning with live
// recognition must wrap the dictionary in a SharedDictionary (see
// Share), which grants readers shared access and writers exclusive
// access; the recognition hot path inside a read section stays
// lock-free per entry.
type Dictionary struct {
	cfg Config

	// Interning tables for the key components. metricIDs covers both
	// configured metrics and any metric name seen through AddN (e.g.
	// foreign names during Load).
	metricIDs   map[string]int32
	metricNames []string
	windowIDs   map[string]int32
	windowKeys  []string

	// The extraction plan: interned IDs of the configured metrics and
	// windows, resolved once at NewDictionary so extraction never
	// formats a window or re-interns a metric per call.
	planMetrics []int32 // per cfg.Metrics (independent keys)
	planJoint   int32   // the "+"-joined metric, -1 unless cfg.Joint
	planWindows []int32 // per cfg.Windows

	// buckets holds the entries: one inner map per (metric, window,
	// node) coordinate, keyed by the canonical mean encoding. Inner
	// lookups take the key as bytes ([]byte-to-string map access does
	// not allocate), which is what makes warmed recognition
	// allocation-free.
	buckets map[bucketKey]map[string]*entry
	size    int

	// appOrder records the order in which application names were first
	// learned; ties during recognition resolve in this order (the
	// paper returns SP for the SP/BT tie because SP was learned
	// first). apps is the same ordering as a slice, so an app ID
	// doubles as a dense vote-accumulator index.
	appOrder map[string]int
	apps     []string

	// Labels are interned like apps; labelApps maps a label ID to its
	// application's ID.
	labelIDs  map[apps.Label]int32
	labels    []apps.Label
	labelApps []int32

	// learnRawBuf and learnKeyBuf are Learn's reused extraction
	// buffers. Learn mutates the dictionary, which is single-writer by
	// contract, so dictionary-owned scratch is race-free and keeps
	// repeated learning allocation-light.
	learnRawBuf rawExec
	learnKeyBuf keySet
}

// bucketKey addresses one (metric, window, node) coordinate of the key
// space through interned IDs. It contains no strings, so bucket lookup
// never allocates.
type bucketKey struct {
	metric int32
	window int32
	node   int32
}

// entry is the value stored under one fingerprint key.
type entry struct {
	// labels lists the label IDs in learning order; counts is parallel
	// and tracks how many training executions produced this key per
	// label — the "repetition count" of §3, which Save preserves.
	labels []int32
	counts []int32
	// apps lists the distinct application IDs of labels, in learning
	// order: the applications one match of this key votes for, so
	// recognition needs no per-key scratch map.
	apps []int32
}

// NewDictionary returns an empty dictionary with the given fingerprint
// configuration.
func NewDictionary(cfg Config) (*Dictionary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dictionary{
		cfg:       cfg,
		metricIDs: make(map[string]int32),
		windowIDs: make(map[string]int32),
		buckets:   make(map[bucketKey]map[string]*entry),
		appOrder:  make(map[string]int),
		labelIDs:  make(map[apps.Label]int32),
		planJoint: -1,
	}
	d.planMetrics = make([]int32, len(cfg.Metrics))
	for i, m := range cfg.Metrics {
		d.planMetrics[i] = d.internMetric(m)
	}
	if cfg.Joint {
		d.planJoint = d.internMetric(strings.Join(cfg.Metrics, "+"))
	}
	d.planWindows = make([]int32, len(cfg.Windows))
	for i, w := range cfg.Windows {
		d.planWindows[i] = d.internWindow(w.Key())
	}
	return d, nil
}

func (d *Dictionary) internMetric(name string) int32 {
	if id, ok := d.metricIDs[name]; ok {
		return id
	}
	id := int32(len(d.metricNames))
	d.metricIDs[name] = id
	d.metricNames = append(d.metricNames, name)
	return id
}

func (d *Dictionary) internWindow(key string) int32 {
	if id, ok := d.windowIDs[key]; ok {
		return id
	}
	id := int32(len(d.windowKeys))
	d.windowIDs[key] = id
	d.windowKeys = append(d.windowKeys, key)
	return id
}

func (d *Dictionary) internApp(app string) int32 {
	if i, ok := d.appOrder[app]; ok {
		return int32(i)
	}
	i := len(d.apps)
	d.appOrder[app] = i
	d.apps = append(d.apps, app)
	return int32(i)
}

func (d *Dictionary) internLabel(l apps.Label) int32 {
	if id, ok := d.labelIDs[l]; ok {
		return id
	}
	id := int32(len(d.labels))
	d.labelIDs[l] = id
	d.labels = append(d.labels, l)
	d.labelApps = append(d.labelApps, d.internApp(l.App))
	return id
}

// Config returns the dictionary's fingerprint configuration.
func (d *Dictionary) Config() Config { return d.cfg }

// AddN inserts a fingerprint/label pair observed n times (n must be
// positive; non-positive counts are ignored).
func (d *Dictionary) AddN(fp Fingerprint, label apps.Label, n int) {
	if n <= 0 {
		return
	}
	bk := bucketKey{
		metric: d.internMetric(fp.Metric),
		window: d.internWindow(fp.Window),
		node:   int32(fp.Node),
	}
	b := d.buckets[bk]
	if b == nil {
		b = make(map[string]*entry)
		d.buckets[bk] = b
	}
	e := b[fp.Key]
	if e == nil {
		e = &entry{}
		b[fp.Key] = e
		d.size++
	}
	d.bump(e, d.internLabel(label), int32(n))
}

// addKeyBytes is the allocation-aware insertion used by the extraction
// paths: the key arrives as bytes in a reused buffer and is only cloned
// into a string when the entry does not exist yet.
func (d *Dictionary) addKeyBytes(bk bucketKey, key []byte, label apps.Label, n int32) {
	b := d.buckets[bk]
	if b == nil {
		b = make(map[string]*entry)
		d.buckets[bk] = b
	}
	e := b[string(key)] // compiler-optimized: no allocation for the lookup
	if e == nil {
		e = &entry{}
		b[string(key)] = e
		d.size++
	}
	d.bump(e, d.internLabel(label), n)
}

// bump records n more observations of label ID lid on entry e,
// maintaining the entry's application list.
func (d *Dictionary) bump(e *entry, lid, n int32) {
	for i, l := range e.labels {
		if l == lid {
			e.counts[i] += n
			return
		}
	}
	e.labels = append(e.labels, lid)
	e.counts = append(e.counts, n)
	app := d.labelApps[lid]
	if !slices.Contains(e.apps, app) {
		e.apps = append(e.apps, app)
	}
}

// Learn extracts the fingerprints of a labelled execution and adds them
// all. This is the entire training step of the EFD — no optimization,
// no model. Keys already present only have counts bumped; new keys
// clone their canonical encoding out of the extraction buffer.
func (d *Dictionary) Learn(src WindowSource, label apps.Label) {
	extractRawInto(&d.learnRawBuf, src, d.cfg.Metrics, d.cfg.Windows, d.cfg.Joint)
	d.learnRaw(d.learnRawBuf, label, &d.learnKeyBuf)
}

// keySet is a reusable extraction buffer: the canonical key bytes of
// every fingerprint of one execution, plus their bucket coordinates.
// keysFromRaw fills it from a rawExec walk.
type keySet struct {
	buf  []byte
	refs []keyRef
}

type keyRef struct {
	bk       bucketKey
	off, end int32
}

// materializeLabels converts an entry's interned labels to the public
// form.
func (d *Dictionary) materializeLabels(e *entry) []apps.Label {
	out := make([]apps.Label, len(e.labels))
	for i, lid := range e.labels {
		out[i] = d.labels[lid]
	}
	return out
}

// Len reports the number of distinct fingerprint keys.
func (d *Dictionary) Len() int { return d.size }

// Apps returns the application names known to the dictionary in
// learning order.
func (d *Dictionary) Apps() []string {
	out := make([]string, len(d.apps))
	copy(out, d.apps)
	return out
}

// Stats summarizes dictionary composition: how many keys are exclusive
// to one application versus collisions shared by several — the
// exclusiveness/pruning trade-off that rounding depth controls.
type Stats struct {
	Keys       int
	Exclusive  int // keys whose labels all share one application
	Collisions int // keys spanning two or more applications
	Labels     int // distinct labels seen
	Depth      int
}

// Stats computes composition statistics.
func (d *Dictionary) Stats() Stats {
	s := Stats{Keys: d.size, Depth: d.cfg.Depth}
	labelSeen := make([]bool, len(d.labels))
	for _, b := range d.buckets {
		for _, e := range b {
			for _, lid := range e.labels {
				labelSeen[lid] = true
			}
			if len(e.apps) <= 1 {
				s.Exclusive++
			} else {
				s.Collisions++
			}
		}
	}
	for _, seen := range labelSeen {
		if seen {
			s.Labels++
		}
	}
	return s
}

// Entry pairs a fingerprint with its labels for enumeration.
type Entry struct {
	Key    Fingerprint
	Labels []apps.Label
	// Counts holds per-label observation counts, parallel to Labels.
	Counts []int
}

// Entries returns every dictionary entry sorted the way Table 4 lists
// them: by metric, window, ascending mean, then node — so related keys
// group together. Labels inside an entry keep learning order.
func (d *Dictionary) Entries() []Entry {
	type sortEntry struct {
		e Entry
		// mean caches Fingerprint.Mean() so the comparator does not
		// re-parse the key string O(n log n) times.
		mean float64
	}
	rows := make([]sortEntry, 0, d.size)
	for bk, b := range d.buckets {
		for key, e := range b {
			fp := Fingerprint{
				Metric: d.metricNames[bk.metric],
				Node:   int(bk.node),
				Window: d.windowKeys[bk.window],
				Key:    key,
			}
			counts := make([]int, len(e.counts))
			for i, c := range e.counts {
				counts[i] = int(c)
			}
			rows = append(rows, sortEntry{
				e:    Entry{Key: fp, Labels: d.materializeLabels(e), Counts: counts},
				mean: fp.Mean(),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].e.Key, rows[j].e.Key
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Key != b.Key {
			am, bm := rows[i].mean, rows[j].mean
			if am != bm {
				return am < bm
			}
			return a.Key < b.Key
		}
		return a.Node < b.Node
	})
	out := make([]Entry, len(rows))
	for i, r := range rows {
		out[i] = r.e
	}
	return out
}

// Dump renders the dictionary in the layout of Table 4.
func (d *Dictionary) Dump(w io.Writer) error {
	fmt.Fprintf(w, "%-28s %5s %10s %10s   %s\n", "Metric Name", "Node", "Interval", "Mean", "Application + Input Size")
	for _, e := range d.Entries() {
		vals := make([]string, len(e.Labels))
		for i, l := range e.Labels {
			vals[i] = l.String()
		}
		if _, err := fmt.Fprintf(w, "%-28s %5d %10s %10s   %s\n",
			e.Key.Metric, e.Key.Node, e.Key.Window,
			e.Key.Key, strings.Join(vals, ", ")); err != nil {
			return err
		}
	}
	return nil
}

// jsonDict is the serialized form of a Dictionary.
type jsonDict struct {
	Metrics []string    `json:"metrics"`
	Windows []string    `json:"windows"`
	Depth   int         `json:"depth"`
	Joint   bool        `json:"joint,omitempty"`
	Apps    []string    `json:"apps"`
	Entries []jsonEntry `json:"entries"`
}

type jsonEntry struct {
	Metric string   `json:"metric"`
	Node   int      `json:"node"`
	Window string   `json:"window"`
	Key    string   `json:"key"` // canonical decimal string(s), bit-exact
	Labels []string `json:"labels"`
	// Counts are per-label observation counts, parallel to Labels;
	// absent counts load as 1.
	Counts []int `json:"counts,omitempty"`
}

// Save writes the dictionary as JSON. Keys are canonical decimal
// strings, so a load reproduces bit-identical fingerprints.
func (d *Dictionary) Save(w io.Writer) error {
	jd := jsonDict{Depth: d.cfg.Depth, Joint: d.cfg.Joint, Apps: d.Apps()}
	jd.Metrics = append(jd.Metrics, d.cfg.Metrics...)
	for _, win := range d.cfg.Windows {
		jd.Windows = append(jd.Windows, win.Key())
	}
	for _, e := range d.Entries() {
		je := jsonEntry{
			Metric: e.Key.Metric,
			Node:   e.Key.Node,
			Window: e.Key.Window,
			Key:    e.Key.Key,
		}
		for i, l := range e.Labels {
			je.Labels = append(je.Labels, l.String())
			je.Counts = append(je.Counts, e.Counts[i])
		}
		jd.Entries = append(jd.Entries, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jd)
}

// Load reads a dictionary previously written by Save, including the
// joint-mode flag, so a combinatorial-fingerprint dictionary keeps
// producing composite keys after a reload.
func Load(r io.Reader) (*Dictionary, error) {
	var jd jsonDict
	if err := json.NewDecoder(r).Decode(&jd); err != nil {
		return nil, fmt.Errorf("core: decode dictionary: %w", err)
	}
	cfg := Config{Metrics: jd.Metrics, Depth: jd.Depth, Joint: jd.Joint}
	for _, ws := range jd.Windows {
		w, err := telemetry.ParseWindow(ws)
		if err != nil {
			return nil, err
		}
		cfg.Windows = append(cfg.Windows, w)
	}
	d, err := NewDictionary(cfg)
	if err != nil {
		return nil, err
	}
	// Pre-register apps so learning order survives the round trip.
	for _, a := range jd.Apps {
		d.internApp(a)
	}
	for _, je := range jd.Entries {
		fp := Fingerprint{Metric: je.Metric, Node: je.Node, Window: je.Window, Key: je.Key}
		if fp.Key == "" {
			return nil, fmt.Errorf("core: entry with empty key")
		}
		for i, ls := range je.Labels {
			l, err := apps.ParseLabel(ls)
			if err != nil {
				return nil, err
			}
			n := 1
			if i < len(je.Counts) && je.Counts[i] > 0 {
				n = je.Counts[i]
			}
			d.AddN(fp, l, n)
		}
	}
	return d, nil
}
