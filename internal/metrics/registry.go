package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file adds the named-metric registry on top of the bare
// instruments: a Registry maps metric names to Counter/Gauge/Summary
// families with help text and label dimensions, and renders the whole
// catalog in the Prometheus text exposition format. The transport,
// fsstore, core and engine layers register their instruments here so the
// DES and the TCP runtime share one metric namespace, and the admin
// control plane (internal/admin) serves it at GET /metrics.

// Kind is the instrument family type.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return "unknown"
}

// EventFamily is the registry's catch-all counter family: the free-form
// Count(name, delta) statistics the protocol layers emit ("ctl.CK_BGN",
// "recovery.rollbacks", ...) become series of this family, labeled by
// name, so the legacy counter namespace and the first-class metrics are
// served from one catalog.
const EventFamily = "ocsml_events_total"

// Registry is a named-metric catalog: name -> family (kind, help,
// labels) -> labeled series. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// family is one named metric with a fixed kind, help string and label
// schema, holding one series per distinct label-value tuple.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu     sync.Mutex
	series map[string]*series // guarded by mu
}

// series is one labeled instrument of a family. Exactly one of c/g/s/fn
// is set, matching the family kind (fn is a function-backed series: the
// value is read at scrape time — how the mesh's existing atomics are
// exposed without double counting).
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	s      *Summary
	fn     func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabel reports whether s is a legal label name.
func validLabel(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for (name, kind, help, labels), creating
// it on first use. Registration is idempotent for an identical schema;
// a name collision with a different kind, help string or label set is
// an error.
func (r *Registry) register(kind Kind, name, help string, labels []string) (*family, error) {
	if !validName(name) {
		return nil, fmt.Errorf("metrics: invalid metric name %q", name)
	}
	seen := map[string]bool{}
	for _, l := range labels {
		if !validLabel(l) {
			return nil, fmt.Errorf("metrics: invalid label name %q on %q", l, name)
		}
		if kind == KindSummary && l == "quantile" {
			return nil, fmt.Errorf("metrics: label %q on summary %q is reserved", l, name)
		}
		if seen[l] {
			return nil, fmt.Errorf("metrics: duplicate label %q on %q", l, name)
		}
		seen[l] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) {
			return nil, fmt.Errorf("metrics: %q already registered as %s%v %q", name, f.kind, f.labels, f.help)
		}
		return f, nil
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: map[string]*series{},
	}
	r.families[name] = f
	return f, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey encodes a label-value tuple (0x1f cannot legally appear
// mid-name and is escaped out of values on render anyway, so the key is
// collision-free for practical values).
func seriesKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// get returns the series for the label values, creating it via make on
// first use. Panics on label arity mismatch — that is a programming
// error at a registration site, not a runtime condition.
func (f *family) get(values []string, make func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := seriesKey(values)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	s.values = append([]string(nil), values...)
	f.series[key] = s
	return s
}

// attach installs (or replaces) a function-backed series: its value is
// fn() at scrape time. A restarted node re-attaches its replacement.
func (f *family) attach(fn func() int64, values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	vals := append([]string(nil), values...)
	f.series[seriesKey(values)] = &series{values: vals, fn: fn}
}

// CounterVec is a labeled counter family handle.
type CounterVec struct{ f *family }

// With returns the counter for the label values, creating it on first
// use. Panics on label arity mismatch.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() *series { return &series{c: &Counter{}} }).c
}

// Attach installs a function-backed series: the scrape reads fn()
// instead of a stored counter. Replaces any existing series with the
// same label values (a restarted node re-attaches its own).
func (v *CounterVec) Attach(fn func() int64, values ...string) { v.f.attach(fn, values) }

// GaugeVec is a labeled gauge family handle.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() *series { return &series{g: &Gauge{}} }).g
}

// Attach installs a function-backed series (see CounterVec.Attach).
func (v *GaugeVec) Attach(fn func() int64, values ...string) { v.f.attach(fn, values) }

// SummaryVec is a labeled summary family handle.
type SummaryVec struct{ f *family }

// With returns the summary for the label values, creating it on first
// use.
func (v *SummaryVec) With(values ...string) *Summary {
	return v.f.get(values, func() *series { return &series{s: &Summary{}} }).s
}

// NewCounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) (*CounterVec, error) {
	f, err := r.register(KindCounter, name, help, labels)
	if err != nil {
		return nil, err
	}
	return &CounterVec{f: f}, nil
}

// NewGaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) (*GaugeVec, error) {
	f, err := r.register(KindGauge, name, help, labels)
	if err != nil {
		return nil, err
	}
	return &GaugeVec{f: f}, nil
}

// NewSummaryVec registers (or retrieves) a labeled summary family.
func (r *Registry) NewSummaryVec(name, help string, labels ...string) (*SummaryVec, error) {
	f, err := r.register(KindSummary, name, help, labels)
	if err != nil {
		return nil, err
	}
	return &SummaryVec{f: f}, nil
}

// MustCounterVec is NewCounterVec, panicking on schema errors (a
// registration-site programming error).
func (r *Registry) MustCounterVec(name, help string, labels ...string) *CounterVec {
	v, err := r.NewCounterVec(name, help, labels...)
	if err != nil {
		panic(err)
	}
	return v
}

// MustGaugeVec is NewGaugeVec, panicking on schema errors.
func (r *Registry) MustGaugeVec(name, help string, labels ...string) *GaugeVec {
	v, err := r.NewGaugeVec(name, help, labels...)
	if err != nil {
		panic(err)
	}
	return v
}

// MustSummaryVec is NewSummaryVec, panicking on schema errors.
func (r *Registry) MustSummaryVec(name, help string, labels ...string) *SummaryVec {
	v, err := r.NewSummaryVec(name, help, labels...)
	if err != nil {
		panic(err)
	}
	return v
}

// MustCounter registers an unlabeled counter.
func (r *Registry) MustCounter(name, help string) *Counter {
	return r.MustCounterVec(name, help).With()
}

// MustGauge registers an unlabeled gauge.
func (r *Registry) MustGauge(name, help string) *Gauge {
	return r.MustGaugeVec(name, help).With()
}

// MustSummary registers an unlabeled summary.
func (r *Registry) MustSummary(name, help string) *Summary {
	return r.MustSummaryVec(name, help).With()
}

// EventSink returns the Count-style callback backed by the EventFamily
// counter: the protocol layers' free-form statistics land in the
// registry under ocsml_events_total{name="..."}. The callback is safe
// for concurrent use and accepts any delta (the legacy namespace
// includes set-once values like recovery.line_seq).
func (r *Registry) EventSink() func(name string, delta int64) {
	vec := r.MustCounterVec(EventFamily, "Free-form protocol and runtime event counters, by event name.", "name")
	return func(name string, delta int64) {
		// Bypass Counter.Add's negative-delta panic: legacy events are
		// not strictly monotone (line_seq is a level reported once).
		vec.With(name).v.Add(delta)
	}
}

// EventCounts snapshots the EventFamily series as the legacy
// map[name]value counter table.
func (r *Registry) EventCounts() map[string]int64 {
	out := map[string]int64{}
	r.mu.Lock()
	f, ok := r.families[EventFamily]
	r.mu.Unlock()
	if !ok {
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		out[s.values[0]] = s.c.Value()
	}
	return out
}

// Value reads one series' current value (counters, gauges and
// function-backed series). The bool reports whether the series exists.
func (r *Registry) Value(name string, values ...string) (int64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[seriesKey(values)]
	if !ok {
		return 0, false
	}
	switch {
	case s.fn != nil:
		return s.fn(), true
	case s.c != nil:
		return s.c.Value(), true
	case s.g != nil:
		return s.g.Value(), true
	}
	return 0, false
}

// FamilyNames returns the sorted names of every registered family.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// summaryQuantiles are the percentiles a summary family exposes.
var summaryQuantiles = []float64{50, 90, 95, 99}

// WritePrometheus renders the whole catalog in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label values, HELP/TYPE headers once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, name := range r.FamilyNames() {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]*series, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, f.series[k])
	}
	f.mu.Unlock()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range rows {
		switch {
		case s.fn != nil:
			writeSample(b, f.name, f.labels, s.values, float64(s.fn()))
		case s.c != nil:
			writeSample(b, f.name, f.labels, s.values, float64(s.c.Value()))
		case s.g != nil:
			writeSample(b, f.name, f.labels, s.values, float64(s.g.Value()))
		case s.s != nil:
			// f.labels has cap == len (copied at registration), so these
			// appends allocate rather than sharing the backing array.
			for _, q := range summaryQuantiles {
				writeSample(b, f.name, append(f.labels, "quantile"),
					append(s.values, strconv.FormatFloat(q/100, 'g', -1, 64)),
					s.s.Percentile(q))
			}
			writeSample(b, f.name+"_sum", f.labels, s.values, s.s.Sum())
			writeSample(b, f.name+"_count", f.labels, s.values, float64(s.s.Count()))
		}
	}
}

func writeSample(b *strings.Builder, name string, labels, values []string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(values[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
