package netrs

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netrs/internal/placement"
	"netrs/internal/scenario"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	in := DefaultConfig()
	in.Seed = 42
	in.Scheme = SchemeNetRSCache
	in.DemandSkew = 0.8
	in.OperatorAlgorithm = "lor"
	in.FailRSNodeAt = 0.5
	in.MeanServiceTime = Time(2.5 * float64(Millisecond))
	in.TimelineBucket = 50 * Millisecond
	in.ControllerInterval = 100 * Millisecond
	in.DemandShiftAt = 0.45
	in.DemandShiftFraction = 0.75
	in.WriteFraction = 0.05
	in.CacheBytes = 64 << 10
	in.CacheAdmitAfter = 2
	in.CacheItemMinBytes = 64
	in.CacheItemMaxBytes = 1024
	in.Faults = []FaultEvent{
		{Kind: FaultRSNodeCrash, AtMs: 400, RSNode: FaultTargetBusiest, DurationMs: 300},
		{Kind: FaultServerSlowdown, AtFraction: 0.25, Server: 3, Multiplier: 4},
	}
	scn, err := ScenarioByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	in.Scenario = scn

	data, err := MarshalConfig(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip differs:\n in %+v\nout %+v", in, out)
	}
	// The serialized form uses unit-suffixed keys.
	for _, key := range []string{"meanServiceTimeUs", "linkLatencyUs", "scheme"} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("serialized config missing %q:\n%s", key, data)
		}
	}
}

// perturb moves every leaf under v away from its current value: numbers
// grow by a distinct step, booleans flip, strings change, and nil pointers
// and empty slices gain one perturbed element. A kind it cannot handle
// fails the test, so a new Config field of such a kind cannot slip by.
func perturb(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		perturb(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		perturb(t, v.Index(0), n)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + int64(*n))
	case reflect.Uint64:
		v.SetUint(v.Uint() + uint64(*n))
	case reflect.Float64:
		v.SetFloat(v.Float() + float64(*n)/64)
	case reflect.String:
		v.SetString(fmt.Sprintf("%s-%d", v.String(), *n))
	default:
		t.Fatalf("perturb: unhandled kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestConfigCodecKeepsEveryField sets every Config field — nested Fabric,
// Scenario and fault-event fields included — away from its default and
// requires UnmarshalConfig(MarshalConfig(c)) == c exactly, so a field the
// codec forgets fails here.
func TestConfigCodecKeepsEveryField(t *testing.T) {
	all := DefaultConfig()
	n := 0
	perturb(t, reflect.ValueOf(&all).Elem(), &n)
	// Closed domains take a valid non-default value.
	all.Scheme = SchemeNetRSCache
	all.PlacementMethod = placement.MethodHeuristic
	// The codec validates the scenario, so its constrained leaves take
	// valid values; the trace replay it cannot combine with workload
	// shaping round-trips in its own config below. Its fault events are
	// the Config.Faults element type, perturbed field by field above.
	scn := &all.Scenario
	scn.Diurnal.Amplitude, scn.Diurnal.Phase = 0.5, 0.25
	*scn.FlashCrowd = scenario.FlashCrowd{AtFraction: 0.25, DurationFraction: 0.5, Share: 0.75, Key: 7}
	scn.Heterogeneous[0].Fraction = 0.5
	scn.ReplayTracePath = ""
	scn.Faults = []FaultEvent{{Kind: FaultServerSlowdown, AtFraction: 0.5, Server: 2, Multiplier: 3}}

	replay := DefaultConfig()
	replay.Scenario = Scenario{Name: "replay", ReplayTracePath: "trace.csv"}

	for _, in := range []Config{all, replay} {
		data, err := MarshalConfig(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := UnmarshalConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip differs:\n in %+v\nout %+v\njson %s", in, out, data)
		}
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	in := DefaultConfig()
	in.Scheme = SchemeCliRSR95
	in.Requests = 777
	if err := SaveConfig(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("file round trip differs")
	}
}

func TestUnmarshalConfigErrors(t *testing.T) {
	if _, err := UnmarshalConfig([]byte("{not json")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := UnmarshalConfig([]byte(`{"scheme":"Bogus"}`)); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if _, err := LoadConfig("/nonexistent/netrs.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSweepChart(t *testing.T) {
	base := testConfig()
	sw := Sweep{
		ID:    "mini",
		Title: "chart sweep",
		XAxis: "Utilization",
		Points: []SweepPoint{
			{X: "50%", Mutate: func(c *Config) { c.Utilization = 0.5 }},
		},
		Schemes: []Scheme{SchemeCliRS, SchemeNetRSToR},
	}
	res, err := RunSweep(base, sw, []uint64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := res.Chart("Avg.")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MINI", "CliRS", "NetRS-ToR", "█", "Utilization 50%"} {
		if !strings.Contains(chart, want) {
			t.Fatalf("chart missing %q:\n%s", want, chart)
		}
	}
	if _, err := res.Chart("nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
