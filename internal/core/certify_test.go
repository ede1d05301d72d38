package core_test

import (
	"testing"
	"time"

	"rulefit/internal/core"
	"rulefit/internal/randgen"
	"rulefit/internal/verify"
)

// TestCertifiedFragmentsAreOptimal checks the counting certificate on
// randgen instances in every capacity profile: each sub-problem it
// certifies has the sub-MILP's optimal total on the same encoding, and
// its placement compiles to tables that respect every capacity and
// every policy's semantics.
func TestCertifiedFragmentsAreOptimal(t *testing.T) {
	profiles := []randgen.CapProfile{randgen.CapTight, randgen.CapMedium, randgen.CapSlack}
	certified := make(map[randgen.CapProfile]int)
	for seed := int64(1); seed <= 200; seed++ {
		for _, cp := range profiles {
			cfg := randgen.FromSeed(seed)
			cfg.Capacity = cp
			inst, err := randgen.Generate(cfg)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, cp, err)
			}
			for _, pol := range inst.Problem.Policies {
				sub, cert, milp, err := core.CertifySub(inst.Problem, pol, core.Options{TimeLimit: 30 * time.Second})
				if err != nil {
					t.Fatalf("seed %d %v ingress %d: %v", seed, cp, pol.Ingress, err)
				}
				if cert == nil {
					continue
				}
				certified[cp]++
				if milp.Status != core.StatusOptimal || milp.TotalRules != cert.TotalRules {
					t.Errorf("seed %d %v ingress %d: certified %d rules, sub-MILP %v with %d",
						seed, cp, pol.Ingress, cert.TotalRules, milp.Status, milp.TotalRules)
				}
				net, err := cert.BuildTables(sub)
				if err != nil {
					t.Fatalf("seed %d %v ingress %d: %v", seed, cp, pol.Ingress, err)
				}
				if v := verify.Capacities(net, sub.Network); len(v) > 0 {
					t.Errorf("seed %d %v ingress %d: capacity violations %v", seed, cp, pol.Ingress, v)
				}
				if v := verify.Semantics(net, sub.Routing, sub.Policies, verify.Config{Seed: seed}); len(v) > 0 {
					t.Errorf("seed %d %v ingress %d: semantic violations %v", seed, cp, pol.Ingress, v)
				}
			}
		}
	}
	for _, cp := range profiles {
		if certified[cp] == 0 {
			t.Errorf("no sub-problem certified under the %v profile", cp)
		}
	}
	t.Logf("certified sub-problems per profile: %v", certified)
}
