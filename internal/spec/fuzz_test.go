package spec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzTooBig rejects inputs whose generator parameters would make Build
// allocate huge topologies or policies — the fuzzer explores the parser
// and builder logic, not memory exhaustion.
func fuzzTooBig(p *Problem) bool {
	t := p.Topology
	if t.K > 6 || t.Switches > 48 || t.Hosts > 6 || t.Leaves > 10 || t.Spines > 10 {
		return true
	}
	if t.Width > 8 || t.Height > 8 || t.Degree > 8 {
		return true
	}
	if len(t.SwitchList) > 64 || len(t.Links) > 256 || len(t.Ports) > 64 {
		return true
	}
	if len(p.Routing.Pairs) > 64 || len(p.Routing.Paths) > 64 {
		return true
	}
	for _, path := range p.Routing.Paths {
		if len(path.Switches) > 64 || len(path.Traffic) > 256 {
			return true
		}
	}
	if len(p.Policies) > 16 || len(p.Monitors) > 16 {
		return true
	}
	for _, pol := range p.Policies {
		if len(pol.Rules) > 64 {
			return true
		}
		for _, r := range pol.Rules {
			if len(r.Pattern) > 256 {
				return true
			}
		}
		if pol.Generate != nil && pol.Generate.NumRules > 64 {
			return true
		}
	}
	return false
}

// FuzzSpecParse feeds arbitrary bytes through the full spec pipeline:
// Load -> Build -> Validate -> BuildMonitors -> Save -> Load. Nothing
// may panic, and any problem that serializes must parse back cleanly
// (the CLI writes fixtures with Save and replays them with Load). The
// memo key of whatever loads must decode back to the problem, so two
// problems share a key only when they are equal.
func FuzzSpecParse(f *testing.F) {
	f.Add([]byte(`{"topology":{"type":"fig3","capacity":4},
		"routing":{"pairs":[{"in":1,"out":2}],"seed":7},
		"policies":[{"ingress":1,"generate":{"numRules":5,"dropFraction":0.4,"seed":3}}]}`))
	f.Add([]byte(`{"topology":{"type":"explicit","capacity":2,
		"switchList":[{"id":0,"capacity":2},{"id":1,"capacity":3}],
		"links":[[0,1]],
		"ports":[{"id":0,"switch":0,"ingress":true},{"id":1,"switch":1,"egress":true}]},
		"routing":{"paths":[{"ingress":0,"egress":1,"switches":[0,1],"traffic":"1***"}]},
		"policies":[{"ingress":0,"rules":[
		{"pattern":"10**","action":"drop","priority":2},
		{"pattern":"****","action":"permit","priority":1}]}]}`))
	f.Add([]byte(`{"topology":{"type":"fattree","k":2,"capacity":8},
		"routing":{"pairs":[{"in":0,"out":1}]},
		"policies":[{"ingress":0,"rules":[{"src":"10.0.0.0/8","srcPort":80,"proto":"tcp","action":"drop","priority":9}]}],
		"monitors":[{"switch":0,"dst":"10.1.0.0/16"}]}`))
	f.Add([]byte(`{"topology":{"type":"ring","switches":4,"capacity":3},
		"routing":{"pairs":[{"in":0,"out":2}],"trafficSlices":true},
		"policies":[{"ingress":0,"generate":{"numRules":4}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return // malformed JSON is fine; it just must not panic
		}
		if fuzzTooBig(p) {
			return
		}
		want := p.Clone()
		nilEmpty(reflect.ValueOf(want).Elem())
		if got, err := decodeKey(NewVersion(p, nil).Key()); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("the key decodes to %+v (error %v), want %+v", got, err, want)
		}
		if _, err := p.BuildMonitors(); err != nil {
			_ = err // building monitors may fail; must not panic
		}
		prob, err := p.Build()
		if err != nil {
			return
		}
		_ = prob.Validate()

		// Whatever parsed must survive a Save/Load round trip: Load uses
		// DisallowUnknownFields, so this catches field-name drift between
		// the struct tags and the written form.
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("Save failed on loadable input: %v", err)
		}
		p2, err := Load(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("Save output does not Load: %v\n%s", err, buf.String())
		}
		if _, err := p2.Build(); err != nil {
			t.Fatalf("rebuilt problem fails Build after round trip: %v", err)
		}
	})
}

// decodeKey parses a Version key back into a problem. The key writes
// the topology, routing and monitors, then the policies, and within
// each part the fields in declaration order.
func decodeKey(key string) (*Problem, error) {
	d := &keyDecoder{b: []byte(key)}
	p := &Problem{}
	for _, part := range []any{&p.Topology, &p.Routing, &p.Monitors, &p.Policies} {
		d.value(reflect.ValueOf(part).Elem())
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errors.New("trailing bytes")
	}
	return p, d.err
}

type keyDecoder struct {
	b   []byte
	err error
}

func (d *keyDecoder) take(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errors.New("short key")
	}
	if d.err != nil {
		return make([]byte, min(n, 8)) // the value no longer matters
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *keyDecoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *keyDecoder) value(v reflect.Value) {
	if d.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Slice:
		n := d.uvarint()
		if n > uint64(len(d.b)) {
			d.err = errors.New("list longer than the key")
			return
		}
		if n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
		}
		for i := 0; i < int(n); i++ {
			d.value(v.Index(i))
		}
	case reflect.Pointer:
		if d.take(1)[0] == 1 {
			v.Set(reflect.New(v.Type().Elem()))
			d.value(v.Elem())
		}
	case reflect.String:
		v.SetString(string(d.take(d.uvarint())))
	case reflect.Int, reflect.Int64:
		x, n := binary.Varint(d.b)
		if n <= 0 {
			d.err = errors.New("bad varint")
			return
		}
		d.b = d.b[n:]
		v.SetInt(x)
	case reflect.Bool:
		v.SetBool(d.take(1)[0] == 1)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.take(8))))
	default:
		d.err = errors.New("unhandled kind " + v.Kind().String())
	}
}

// nilEmpty sets every empty slice reachable from v to nil, the form
// decodeKey gives them: the key writes both as a zero count.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	}
}
