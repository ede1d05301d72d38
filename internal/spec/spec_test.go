package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const fig3JSON = `{
  "topology": {"type": "fig3", "capacity": 10},
  "routing": {"pairs": [{"in": 1, "out": 2}, {"in": 1, "out": 3}], "seed": 1},
  "policies": [
    {"ingress": 1, "rules": [
      {"src": "10.0.0.0/16", "dst": "11.0.0.0/8", "action": "permit", "priority": 3},
      {"src": "10.0.0.0/8", "action": "drop", "priority": 2},
      {"dst": "12.0.0.0/8", "proto": "tcp", "dstPort": 80, "action": "drop", "priority": 1}
    ]}
  ]
}`

func TestLoadAndBuildFig3(t *testing.T) {
	p, err := Load(strings.NewReader(fig3JSON))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	if prob.Network.NumSwitches() != 5 {
		t.Errorf("switches = %d", prob.Network.NumSwitches())
	}
	if got := prob.Routing.NumPaths(); got != 2 {
		t.Errorf("paths = %d", got)
	}
	if len(prob.Policies) != 1 || len(prob.Policies[0].Rules) != 3 {
		t.Errorf("policies malformed: %+v", prob.Policies)
	}
}

func TestRoundTrip(t *testing.T) {
	p, err := Load(strings.NewReader(fig3JSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Policies) != len(p.Policies) {
		t.Errorf("round trip lost policies")
	}
}

func TestExplicitTopologyAndPaths(t *testing.T) {
	in := `{
	  "topology": {"type": "explicit", "capacity": 0,
	    "switchList": [{"id": 1, "capacity": 5}, {"id": 2, "capacity": 5}],
	    "links": [[1, 2]],
	    "ports": [{"id": 1, "switch": 1, "ingress": true}, {"id": 2, "switch": 2, "egress": true}]},
	  "routing": {"paths": [{"ingress": 1, "egress": 2, "switches": [1, 2]}]},
	  "policies": [{"ingress": 1, "rules": [{"pattern": "1***", "action": "drop", "priority": 1}]}]
	}`
	p, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	if prob.Policies[0].Rules[0].Match.Width() != 4 {
		t.Errorf("pattern width = %d", prob.Policies[0].Rules[0].Match.Width())
	}
}

func TestGeneratedPolicies(t *testing.T) {
	in := `{
	  "topology": {"type": "fattree", "k": 4, "capacity": 100},
	  "routing": {"pairs": [{"in": 0, "out": 7}], "seed": 3},
	  "policies": [{"ingress": 0, "generate": {"numRules": 12, "seed": 5}}]
	}`
	p, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prob.Policies[0].Rules); got != 12 {
		t.Errorf("generated rules = %d, want 12", got)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorTopologies(t *testing.T) {
	for _, typ := range []string{
		`{"type": "leafspine", "leaves": 3, "spines": 2, "capacity": 5, "hostsPerEdge": 1}`,
		`{"type": "linear", "switches": 4, "capacity": 5}`,
		`{"type": "ring", "switches": 5, "capacity": 5}`,
		`{"type": "grid", "width": 3, "height": 2, "capacity": 5}`,
		`{"type": "random", "switches": 10, "degree": 3, "capacity": 5, "seed": 2}`,
	} {
		var ts Topology
		if err := json.Unmarshal([]byte(typ), &ts); err != nil {
			t.Fatal(err)
		}
		topo, err := ts.build()
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if topo.NumSwitches() == 0 {
			t.Errorf("%s: empty topology", typ)
		}
	}
}

func TestBadInputs(t *testing.T) {
	cases := []string{
		`{"topology": {"type": "nope", "capacity": 1}, "routing": {"pairs": [{"in":0,"out":1}]}, "policies": []}`,
		`{"topology": {"type": "fig3", "capacity": 1}, "routing": {}, "policies": []}`,
		`{"topology": {"type": "fig3", "capacity": 1}, "routing": {"pairs": [{"in":1,"out":2}]}, "policies": [{"ingress":1,"rules":[{"pattern":"1*","action":"explode","priority":1}]}]}`,
		`{"topology": {"type": "fig3", "capacity": 1}, "routing": {"pairs": [{"in":1,"out":2}]}, "policies": [{"ingress":1,"rules":[{"src":"999.0.0.0/8","action":"drop","priority":1}]}]}`,
		`{"topology": {"type": "fig3", "capacity": 1}, "routing": {"pairs": [{"in":1,"out":2}]}, "policies": [{"ingress":1,"rules":[{"src":"10.0.0.0/40","action":"drop","priority":1}]}]}`,
	}
	for i, c := range cases {
		p, err := Load(strings.NewReader(c))
		if err != nil {
			continue // rejected at decode time is fine too
		}
		if _, err := p.Build(); err == nil {
			t.Errorf("case %d: expected build error", i)
		}
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown top-level field should be rejected")
	}
}

// TestTrailingDataRejected: Load takes exactly one JSON value, with
// only whitespace after it.
func TestTrailingDataRejected(t *testing.T) {
	const valid = `{"topology": {"type": "fig3", "capacity": 4}, "routing": {"pairs": [{"in":1,"out":2}]}, "policies": []}`
	for _, tail := range []string{` {"junk": true}`, " trailing garbage", "}", "]"} {
		if _, err := Load(strings.NewReader(valid + tail)); err == nil {
			t.Errorf("Load accepted a body followed by %q", tail)
		}
	}
	if _, err := Load(strings.NewReader(valid + " \n\t\n")); err != nil {
		t.Errorf("Load rejected trailing whitespace: %v", err)
	}
}

func TestParseCIDR(t *testing.T) {
	ip, plen, err := parseCIDR("10.1.2.3/24")
	if err != nil || ip != 0x0A010203 || plen != 24 {
		t.Errorf("parseCIDR = %x/%d, %v", ip, plen, err)
	}
	for _, bad := range []string{"10.0.0.0", "a.b.c.d/8", "10.0.0.0/33", "256.0.0.0/8"} {
		if _, _, err := parseCIDR(bad); err == nil {
			t.Errorf("parseCIDR(%q) should fail", bad)
		}
	}
}

func TestMonitorsSpec(t *testing.T) {
	in := `{
	  "topology": {"type": "fig3", "capacity": 10},
	  "routing": {"pairs": [{"in": 1, "out": 2}, {"in": 1, "out": 3}]},
	  "policies": [{"ingress": 1, "rules": [{"src": "10.0.0.0/8", "action": "drop", "priority": 1}]}],
	  "monitors": [
	    {"switch": 2, "src": "10.0.0.0/8"},
	    {"switch": 3, "pattern": "11"}
	  ]
	}`
	p, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	mons, err := p.BuildMonitors()
	if err != nil {
		t.Fatal(err)
	}
	if len(mons) != 2 || mons[0].Switch != 2 || mons[1].Switch != 3 {
		t.Fatalf("monitors = %+v", mons)
	}
	if mons[1].Match.Width() != 2 {
		t.Errorf("pattern width = %d", mons[1].Match.Width())
	}
	// Bad monitor pattern errors out.
	p.Monitors[0].Pattern = "xyz"
	if _, err := p.BuildMonitors(); err == nil {
		t.Error("bad pattern should fail")
	}
}
