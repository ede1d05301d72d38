package obs

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// RequestCtx scopes one placement request's observability: a
// deterministic trace ID and a span trace that carries it. The caller
// passes Trace on as core.Options.Trace and stamps the ID on the
// request's solver events with Tag, so a request's phase spans, B&B
// events, and log lines are joinable by ID.
type RequestCtx struct {
	// TraceID identifies the request. Deterministic by construction
	// (see TraceIDFor): identical request sequences produce identical
	// IDs, so traces can be diffed across runs.
	TraceID string
	// Trace collects the request's phase spans.
	Trace *Trace
}

// NewRequestCtx returns a request context with a fresh span trace
// carrying the given ID.
func NewRequestCtx(traceID string) *RequestCtx {
	tr := NewTrace()
	tr.SetID(traceID)
	return &RequestCtx{TraceID: traceID, Trace: tr}
}

// TraceIDFor derives the deterministic trace ID for the seq-th request
// with the given body: a sequence number plus an FNV-1a content hash.
// Replaying the same request stream yields the same IDs.
func TraceIDFor(seq uint64, body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("req-%06d-%016x", seq, h.Sum64())
}

// tagSink stamps a trace ID on every event before forwarding.
type tagSink struct {
	id string
	s  Sink
}

func (t tagSink) Event(e Event) {
	e.TraceID = t.id
	//lint:sinkguard Tag maps a nil sink to nil, so t.s is never nil
	t.s.Event(e)
}

// Tag wraps s so every event carries TraceID id. Returns s unchanged
// when id is empty, and nil when s is nil (preserving the solver's
// disabled-sink fast path).
func Tag(id string, s Sink) Sink {
	if s == nil || id == "" {
		return s
	}
	return tagSink{id: id, s: s}
}

// metricNameRE is the Prometheus metric/label name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// newExpositionScanner returns a line scanner sized for exposition
// payloads.
func newExpositionScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return sc
}

// PrometheusSamples reads a text-exposition (0.0.4) payload into a map
// from series, the sample line up to its value (for example
// `rulefit_solves_total{status="optimal"}`), to the value parsed as a
// float: values are rendered with %g, so 1,234,567 reads back from
// `1.234567e+06`. Comment lines are skipped, and conformance is
// CheckPrometheusText's job. Tests read a registry's values through it,
// as a scraper would.
func PrometheusSamples(r io.Reader) (map[string]float64, error) {
	sc := newExpositionScanner(r)
	out := map[string]float64{}
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out[series] = value
	}
	return out, sc.Err()
}

// CheckPrometheusText validates a text-exposition (0.0.4) payload:
// every line is a HELP/TYPE comment or a `name{labels} value` sample,
// names and label names match the Prometheus grammar, every sample's
// family has a TYPE, histogram buckets are cumulative and end at
// le="+Inf" with the +Inf bucket equal to _count. It returns the first
// violation found. Exposed so endpoint tests and CI smoke checks share
// one conformance definition.
func CheckPrometheusText(r io.Reader) error {
	sc := newExpositionScanner(r)
	typed := map[string]string{} // family -> type
	type histState struct {
		prev    float64 // last cumulative bucket count
		infSeen bool
		inf     float64
		count   float64
		hasCnt  bool
	}
	hists := map[string]*histState{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !metricNameRE.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				typed[name] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		_, name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !metricNameRE.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		for ln := range labels {
			if !metricNameRE.MatchString(ln) {
				return fmt.Errorf("line %d: bad label name %q", lineNo, ln)
			}
		}
		family, suffix := histFamilyOf(name, typed)
		if family == "" {
			if _, ok := typed[name]; !ok {
				return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
			}
			continue
		}
		// Histogram state is tracked per (family, non-le label set): a
		// family like request_phase_seconds carries one cumulative
		// bucket sequence per phase label, each ending at its own +Inf.
		key := family + histLabelSignature(labels)
		h := hists[key]
		if h == nil {
			h = &histState{}
			hists[key] = h
		}
		switch suffix {
		case "_bucket":
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: histogram bucket %q missing le label", lineNo, name)
			}
			if le == "+Inf" {
				h.infSeen, h.inf = true, value
				break
			}
			if _, err := strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("line %d: bad le value %q", lineNo, le)
			}
			if value < h.prev {
				return fmt.Errorf("line %d: histogram %s buckets not cumulative (%g after %g)", lineNo, key, value, h.prev)
			}
			h.prev = value
		case "_count":
			h.count, h.hasCnt = value, true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, h := range hists {
		if !h.infSeen {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", name)
		}
		if !h.hasCnt {
			return fmt.Errorf("histogram %s has no _count sample", name)
		}
		//lint:exactfloat bucket counts are integer-valued counters parsed as floats
		if h.inf != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", name, h.inf, h.count)
		}
		if h.prev > h.inf {
			return fmt.Errorf("histogram %s: finite bucket %g exceeds +Inf bucket %g", name, h.prev, h.inf)
		}
	}
	return nil
}

// histLabelSignature renders a sample's labels minus "le" as a stable
// suffix ("" when unlabeled), so histogram state can be tracked per
// family member.
func histLabelSignature(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString("{" + k + "=" + labels[k] + "}")
	}
	return sb.String()
}

// histFamilyOf resolves a sample name to its TYPE'd histogram family
// and suffix, or ("", "") for non-histogram samples.
func histFamilyOf(name string, typed map[string]string) (family, suffix string) {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, sfx)
		if base != name && typed[base] == "histogram" {
			return base, sfx
		}
	}
	return "", ""
}

// parseSample splits one exposition sample line into its series (the
// line up to the value), metric name, labels and value.
func parseSample(line string) (series, name string, labels map[string]string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	labels = map[string]string{}
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[brace+1:end], labels); err != nil {
			return "", "", nil, 0, fmt.Errorf("%w in %q", err, line)
		}
		series, rest = rest[:end+1], strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return "", "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], strings.TrimSpace(fields[1])
		series = name
	}
	// The value may be followed by an optional timestamp.
	valField := strings.Fields(rest)
	if len(valField) < 1 {
		return "", "", nil, 0, fmt.Errorf("missing value in %q", line)
	}
	v, err := strconv.ParseFloat(valField[0], 64)
	if err != nil {
		return "", "", nil, 0, fmt.Errorf("bad value %q", valField[0])
	}
	return series, name, labels, v, nil
}

// parseLabels parses `k1="v1",k2="v2"` into out.
func parseLabels(s string, out map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value after %q", key)
		}
		i := 1
		var val strings.Builder
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				val.WriteByte(rest[i])
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		out[key] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}
