package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONLWriter is a Sink that streams events as one JSON object per
// line. Writes are mutex-serialized so concurrent solves may share one
// writer; their events interleave per line but each line stays intact.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLWriter wraps w in a buffered JSONL event writer. Call Flush
// (or Close if w is an io.Closer you own) before reading the output.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Event encodes one event as a JSON line. Encoding errors are sticky
// and reported by Flush; the Sink interface has no error path because
// the solver must never react to sink failures.
func (j *JSONLWriter) Event(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// Flush drains the buffer and returns the first sticky error, if any.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// ReadEvents parses a JSONL trace produced by JSONLWriter.
func ReadEvents(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}
