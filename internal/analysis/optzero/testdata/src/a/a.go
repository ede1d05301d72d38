// Fixture for the optzero analyzer: solver/verifier option literals.
package a

import (
	"time"

	"rulefit/internal/daemon"
	"rulefit/internal/ilp"
	"rulefit/internal/load"
	"rulefit/internal/obs"
	"rulefit/internal/verify"
)

func positives() {
	_ = ilp.Options{}                  // want "ilp.Options without TimeLimit or NodeLimit"
	_ = ilp.Options{FullPricing: true} // want "ilp.Options without TimeLimit or NodeLimit"
	// Attaching observability does not bound the search.
	_ = ilp.Options{Sink: nil}             // want "ilp.Options without TimeLimit or NodeLimit"
	_ = ilp.Options{Span: nil, Sink: nil}  // want "ilp.Options without TimeLimit or NodeLimit"
	_ = verify.Config{}                    // want "zero-value verify.Config"
	_ = daemon.Config{}                    // want "daemon.Config without MaxInFlight"
	_ = daemon.Config{MaxQueue: 64}        // want "daemon.Config without MaxInFlight"
	_ = daemon.Config{TraceDir: "/tmp/tr"} // want "daemon.Config without MaxInFlight"
	_ = obs.HistogramOpts{}                // want "zero-value obs.HistogramOpts"
	_ = obs.FlightOpts{}                   // want "zero-value obs.FlightOpts"
	// The introspection fields do not bound admission.
	_ = daemon.Config{FlightDir: "/tmp/f"} // want "daemon.Config without MaxInFlight"
	_ = load.Config{}                      // want "load.Config without Requests or Duration"
	_ = load.Config{Seed: 7}               // want "load.Config without Requests or Duration"
	_ = load.Config{Concurrency: 4}        // want "load.Config without Requests or Duration"
}

func negatives() {
	_ = ilp.Options{TimeLimit: time.Minute}
	_ = ilp.Options{NodeLimit: 100}
	_ = ilp.Options{TimeLimit: time.Second, FullPricing: true}
	_ = ilp.Options{NodeLimit: 100, Sink: nil}
	_ = verify.Config{Seed: 7}
	_ = verify.Config{Span: nil} // non-empty: effort fields were considered
	_ = daemon.Config{MaxInFlight: 4}
	_ = daemon.Config{MaxInFlight: 0, MaxQueue: 16} // explicit 0 documents the GOMAXPROCS intent
	_ = obs.HistogramOpts{Start: 0.001, Factor: 2, Count: 16}
	_ = obs.HistogramOpts{Start: 1} // non-empty: a layout was considered
	//lint:optzero ablation harness: unbounded solve is the point
	_ = ilp.Options{}
	//lint:optzero smoke tool: shedding bound irrelevant for one request
	_ = daemon.Config{}
	_ = obs.FlightOpts{Size: 1024}
	//lint:optzero test recorder: default ring size acceptable
	_ = obs.FlightOpts{}
	_ = daemon.Config{MaxInFlight: 2, FlightDir: "/tmp/f"}
	_ = load.Config{Requests: 32}
	_ = load.Config{Duration: time.Second, RPS: 10}
	//lint:optzero exploratory run: implicit default length acceptable
	_ = load.Config{}
}
