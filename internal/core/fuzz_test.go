package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadScorecardJSON drives the scorecard reader over arbitrary
// input. Every input must either fail to parse or yield a scorecard
// that WriteJSON re-encodes into bytes that parse back to an equal
// scorecard.
func FuzzReadScorecardJSON(f *testing.F) {
	reg := StandardRegistry()
	c := NewScorecard(reg, "NetRecorder", "5.0")
	c.Set(Observation{MetricID: MTimeliness, Score: 3, How: ByAnalysis, Note: "mean 12ms"})
	c.Set(Observation{MetricID: MOutsourcedSolution, Score: 4, How: ByOpenSource})
	var valid bytes.Buffer
	if err := c.WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, s := range []string{
		``,
		`{}`,
		`{"system":"x"}`,
		`{"system":"x","version":"1","observations":[{"metric":"timeliness","score":0}]}`,
		`{"system":"x","observations":[{"metric":"timeliness","score":1},{"metric":"timeliness","score":4}]}`,
		`{"system":"x","observations":[]} {"system":"y"}`,
		`{"system":"x","observations":[]}` + "\n\t ",
		`{"system":"x","observations":[{"metric":"timeliness","score":2,"how":"analysis|open-source"}]}`,
		`{"system":"x","observations":[{"metric":"timeliness","score":1.5}]}`,
		`[1,2,3]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadScorecardJSON(bytes.NewReader(data), reg)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := got.WriteJSON(&enc); err != nil {
			t.Fatalf("re-encoding a parsed scorecard: %v", err)
		}
		again, err := ReadScorecardJSON(bytes.NewReader(enc.Bytes()), reg)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", enc.Bytes(), err)
		}
		if again.System != got.System || again.Version != got.Version ||
			!reflect.DeepEqual(again.Observations(), got.Observations()) {
			t.Fatalf("round trip changed the scorecard:\n got %+v\nagain %+v", got, again)
		}
	})
}
