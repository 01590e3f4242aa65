package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseScenario drives the scenario parser over arbitrary input.
// Every input must either fail to parse or yield a scenario that
// re-encodes into JSON that parses back to an equal scenario.
func FuzzParseScenario(f *testing.F) {
	shipped, err := filepath.Glob("../../examples/faults/*.json")
	if err != nil || len(shipped) == 0 {
		f.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, p := range shipped {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		``,
		`{}`,
		`{"name":"x"}`,
		`{"name":"x","events":[]}`,
		`{"name":"x","events":null}`,
		`{"name":"x","events":[]}` + "\n",
		`{"name":"x","events":[]} {"name":"y"}`,
		`{"name":"x","events":[{"at":1500,"duration":"2s","kind":"link-flap","target":"link:span","period":"250ms"}]}`,
		`{"name":"x","events":[{"at":"1s","duration":"1s","kind":"mgmt-outage","target":"mgmt","severity":0.25}]}`,
		`{"name":"x","events":[{"at":"-1s","kind":"sensor-crash","target":"sensor:0"}]}`,
		`{"name":"x","frobnicate":true,"events":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("re-encoding a parsed scenario: %v", err)
		}
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, sc) {
			t.Fatalf("round trip changed the scenario:\n got %+v\nagain %+v", sc, again)
		}
	})
}
