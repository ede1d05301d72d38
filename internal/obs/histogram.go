package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// HistogramOpts configures a log-spaced bucket layout: bucket i covers
// values up to Start*Factor^i, for i in [0, Count), with a final
// implicit +Inf bucket. The zero value selects the package default
// layout (Start 0.001, Factor 2, Count 16); production call sites
// should state their layout explicitly (the optzero analyzer flags
// empty literals).
type HistogramOpts struct {
	// Start is the upper bound of the first bucket (must be > 0).
	Start float64
	// Factor is the ratio between consecutive bucket bounds (must be > 1).
	Factor float64
	// Count is the number of finite buckets (+Inf is always added).
	Count int
}

// defaults fills unset fields with the package default layout.
func (o HistogramOpts) defaults() HistogramOpts {
	if o.Start <= 0 {
		o.Start = 0.001
	}
	if o.Factor <= 1 {
		o.Factor = 2
	}
	if o.Count <= 0 {
		o.Count = 16
	}
	return o
}

// Bounds materializes the finite bucket upper bounds.
func (o HistogramOpts) Bounds() []float64 {
	o = o.defaults()
	bounds := make([]float64, o.Count)
	b := o.Start
	for i := range bounds {
		bounds[i] = b
		b *= o.Factor
	}
	return bounds
}

// Histogram is a fixed-bucket distribution instrument. Buckets are
// log-spaced per HistogramOpts; observations are O(log buckets) and
// mutex-guarded (instruments record once per solve or request, nowhere
// near a hot path). The zero value is usable and lazily adopts the
// default layout on first use; NewHistogram picks an explicit layout.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // per-bucket, len(bounds)+1 (last is +Inf)
	sum    float64
	count  uint64
}

// NewHistogram returns a histogram with the given bucket layout.
func NewHistogram(opts HistogramOpts) *Histogram {
	h := &Histogram{}
	h.init(opts)
	return h
}

// init sets the layout. Caller holds mu (or has exclusive access).
func (h *Histogram) init(opts HistogramOpts) {
	//lint:sharedmut caller holds mu or has exclusive access (see doc)
	h.bounds = opts.Bounds()
	//lint:sharedmut caller holds mu or has exclusive access (see doc)
	h.counts = make([]uint64, len(h.bounds)+1)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bounds == nil {
		//lint:optzero zero-value histograms lazily adopt the documented default layout
		h.init(HistogramOpts{})
	}
	// First bucket whose upper bound admits v; +Inf bucket otherwise.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is a point-in-time copy of a histogram in
// cumulative (Prometheus) form: Buckets[i].Count counts observations
// with value <= Buckets[i].LE, and the final bucket is +Inf with
// Count == the total observation count.
type HistogramSnapshot struct {
	Buckets []BucketCount `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   uint64        `json:"count"`
}

// BucketCount is one cumulative histogram bucket. LE is
// math.Inf(1) for the final bucket (serialized as "+Inf" by the
// Prometheus encoder; the JSON encoder uses the string form too).
type BucketCount struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MarshalJSON renders LE as the string "+Inf" for the final bucket
// (float +Inf is not representable in JSON).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return json.Marshal(struct {
			LE    string `json:"le"`
			Count uint64 `json:"count"`
		}{"+Inf", b.Count})
	}
	return json.Marshal(struct {
		LE    float64 `json:"le"`
		Count uint64  `json:"count"`
	}{b.LE, b.Count})
}

// UnmarshalJSON parses the bucket form written by MarshalJSON.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if string(raw.LE) == `"+Inf"` {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// Snapshot copies the histogram in cumulative form.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bounds == nil {
		//lint:optzero zero-value histograms lazily adopt the documented default layout
		h.init(HistogramOpts{})
	}
	s := HistogramSnapshot{
		Buckets: make([]BucketCount, len(h.counts)),
		Sum:     h.sum,
		Count:   h.count,
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: le, Count: cum}
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) from the cumulative
// snapshot by linear interpolation inside the first bucket whose
// cumulative count reaches q*Count. Values in the +Inf bucket clamp to
// the largest finite bound. Returns 0 for an empty snapshot. The
// estimate is deterministic: a pure function of the snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	lower := 0.0
	var below uint64
	for _, b := range s.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.LE, 1) {
				// Observations beyond the finite layout: report the
				// largest finite bound rather than inventing a value.
				return lower
			}
			in := float64(b.Count - below)
			if in <= 0 {
				return b.LE
			}
			frac := (rank - float64(below)) / in
			return lower + frac*(b.LE-lower)
		}
		if !math.IsInf(b.LE, 1) {
			lower = b.LE
		}
		below = b.Count
	}
	return lower
}

// Gauge is an instantaneous-value instrument (in-flight requests,
// queue depth). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d and returns the new value.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LabeledCounter is a counter family keyed by an ordered label-value
// tuple (the label names live at the exposition site). The zero value
// is ready to use.
type LabeledCounter struct {
	mu   sync.Mutex
	vals map[string]int64
}

// labelSep joins label values into a map key; \x1f cannot appear in
// sane label values.
const labelSep = "\x1f"

// Add increments the series identified by the label values.
func (c *LabeledCounter) Add(delta int64, labelValues ...string) {
	key := ""
	for i, v := range labelValues {
		if i > 0 {
			key += labelSep
		}
		key += v
	}
	c.mu.Lock()
	if c.vals == nil {
		c.vals = make(map[string]int64)
	}
	c.vals[key] += delta
	c.mu.Unlock()
}

// LabeledCount is one series of a LabeledCounter snapshot.
type LabeledCount struct {
	Labels []string `json:"labels"`
	Value  int64    `json:"value"`
}

// Snapshot returns the series sorted by label tuple, so encoders emit
// a deterministic order.
func (c *LabeledCounter) Snapshot() []LabeledCount {
	c.mu.Lock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	vals := make(map[string]int64, len(c.vals))
	for k, v := range c.vals {
		vals[k] = v
	}
	c.mu.Unlock()
	sort.Strings(keys)
	out := make([]LabeledCount, len(keys))
	for i, k := range keys {
		out[i] = LabeledCount{Labels: splitLabels(k), Value: vals[k]}
	}
	return out
}

// LabeledHistogram is a histogram family keyed by one label value
// (request phase, workload stratum); every member shares one bucket
// layout so family members merge and compare exactly. The zero value
// is usable and lazily adopts the default layout on first use;
// NewLabeledHistogram picks an explicit layout.
type LabeledHistogram struct {
	mu   sync.Mutex
	opts HistogramOpts
	set  bool
	vals map[string]*Histogram
}

// NewLabeledHistogram returns a family with the given shared layout.
func NewLabeledHistogram(opts HistogramOpts) *LabeledHistogram {
	return &LabeledHistogram{opts: opts.defaults(), set: true}
}

// Observe records one value into the label's member histogram,
// creating it on first use.
func (l *LabeledHistogram) Observe(label string, v float64) {
	l.mu.Lock()
	if !l.set {
		//lint:optzero zero-value families lazily adopt the documented default layout
		l.opts, l.set = HistogramOpts{}.defaults(), true
	}
	if l.vals == nil {
		l.vals = make(map[string]*Histogram)
	}
	h := l.vals[label]
	if h == nil {
		h = NewHistogram(l.opts)
		l.vals[label] = h
	}
	l.mu.Unlock()
	h.Observe(v)
}

// LabeledHist is one member of a LabeledHistogram snapshot.
type LabeledHist struct {
	Label string            `json:"label"`
	Hist  HistogramSnapshot `json:"hist"`
}

// Snapshot returns the members sorted by label, so encoders emit a
// deterministic order.
func (l *LabeledHistogram) Snapshot() []LabeledHist {
	l.mu.Lock()
	labels := make([]string, 0, len(l.vals))
	hists := make(map[string]*Histogram, len(l.vals))
	for k, h := range l.vals {
		labels = append(labels, k)
		hists[k] = h
	}
	l.mu.Unlock()
	sort.Strings(labels)
	out := make([]LabeledHist, len(labels))
	for i, k := range labels {
		out[i] = LabeledHist{Label: k, Hist: hists[k].Snapshot()}
	}
	return out
}

// splitLabels undoes the Add key join.
func splitLabels(key string) []string {
	var out []string
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == labelSep[0] {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return append(out, key[start:])
}
