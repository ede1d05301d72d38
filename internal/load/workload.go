package load

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"rulefit/internal/daemon"
	"rulefit/internal/diffcheck"
	"rulefit/internal/randgen"
)

// WorkItem is one replayable request: the marshaled wire body, which
// HTTP and in-process replay both send through the daemon's decoder,
// and the identity fields carried into the report.
type WorkItem struct {
	// Index is the item's position in the workload (not the issue
	// order — closed-loop replay may reuse items across repeats).
	Index int
	// Seed is the randgen seed the instance was generated from.
	Seed int64
	// Stratum buckets the instance by total rule count ("small",
	// "medium", "large"), so latency can be reported per size class.
	Stratum string
	// Rules is the instance's total rule count across policies.
	Rules int
	// Body is the marshaled daemon.PlaceRequest.
	Body []byte
}

// Workload is a deterministic request set: a pure function of
// (seed, count, options), fingerprinted so reports can prove two runs
// replayed the same bytes.
type Workload struct {
	Seed        int64
	Items       []WorkItem
	Fingerprint string
}

// seedStride spaces per-request seeds so adjacent requests draw
// well-separated randgen configurations (matches the bench suite's
// seed spacing).
const seedStride = 101

// stratumOf buckets an instance by total rule count. The bounds track
// randgen.FromSeed's output range (3–12 rules for most instances) so
// all three strata populate on realistic workloads.
func stratumOf(rules int) string {
	switch {
	case rules <= 6:
		return "small"
	case rules <= 12:
		return "medium"
	default:
		return "large"
	}
}

// BuildWorkload materializes the request set for cfg: one
// randgen.FromSeed instance per request, serialized through the exact
// spec round-trip (diffcheck.ProblemToSpec), wrapped in the daemon
// wire format. Identical configs produce byte-identical workloads.
func BuildWorkload(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	wl := &Workload{Seed: cfg.Seed}
	fp := fnv.New64a()
	for i := 0; i < cfg.Requests; i++ {
		seed := cfg.Seed + int64(i)*seedStride
		inst, err := randgen.Generate(randgen.FromSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("load: generating request %d (seed %d): %w", i, seed, err)
		}
		probJSON, err := json.Marshal(diffcheck.ProblemToSpec(inst.Problem))
		if err != nil {
			return nil, err
		}
		opts := daemon.RequestOptions{
			Merging:      cfg.Merging,
			TimeLimitSec: cfg.TimeLimitSec,
		}
		body, err := json.Marshal(daemon.PlaceRequest{Problem: probJSON, Options: opts})
		if err != nil {
			return nil, err
		}
		rules := 0
		for _, p := range inst.Problem.Policies {
			rules += len(p.Rules)
		}
		fp.Write(body)
		wl.Items = append(wl.Items, WorkItem{
			Index:   i,
			Seed:    seed,
			Stratum: stratumOf(rules),
			Rules:   rules,
			Body:    body,
		})
	}
	wl.Fingerprint = fmt.Sprintf("%016x", fp.Sum64())
	return wl, nil
}
