package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Envelope is the header every rulefit report carries: the schema that
// names the payload layout, when the report was taken, and on what
// host. Wall clocks are only comparable between reports from one host.
type Envelope struct {
	Schema    string `json:"schema"`
	Timestamp string `json:"timestamp"` // RFC 3339, UTC
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS bound any speedup the report can show.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// NewEnvelope stamps a report of the given schema with the current time
// and host.
func NewEnvelope(schema string) Envelope {
	return Envelope{
		Schema: schema,
		//lint:detsource run metadata by design; diffs strip the timestamp
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// HostDiffers reports whether two reports were taken on different hosts
// or Go versions, which makes their wall clocks incomparable.
func (e Envelope) HostDiffers(o Envelope) bool {
	return e.GOOS != o.GOOS || e.GOARCH != o.GOARCH ||
		e.NumCPU != o.NumCPU || e.GoVersion != o.GoVersion
}

// ReadEnvelope decodes just the envelope of the report at path, so a
// caller can pick the payload type its schema names.
func ReadEnvelope(path string) (Envelope, error) {
	var e Envelope
	return e, decodeFile(path, &e)
}

// ReadJSON decodes the report at path as an R, a struct embedding
// Envelope, and fails unless the report's schema is want.
func ReadJSON[R any](path, want string) (*R, error) {
	var e Envelope
	r := new(R)
	if err := decodeFile(path, &e, r); err != nil {
		return nil, err
	}
	if e.Schema != want {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, e.Schema, want)
	}
	return r, nil
}

// decodeFile unmarshals the JSON file at path into each of vs.
func decodeFile(path string, vs ...any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, v := range vs {
		if err := json.Unmarshal(data, v); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}
