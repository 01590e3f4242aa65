package requirements

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadRequirementsJSON drives the requirement-set reader over
// arbitrary input. Every input must either fail to parse or yield a set
// that WriteJSON re-encodes into bytes that parse back to an equal set.
func FuzzReadRequirementsJSON(f *testing.F) {
	var valid bytes.Buffer
	if err := RealTimeEmphasis().WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, s := range []string{
		``,
		`{}`,
		`null`,
		`{"requirements":null}`,
		`{"requirements":[]}`,
		`{"requirements":[]} garbage {`,
		`{"requirements":[]}` + "\n\t ",
		`{"requirements":[{"name":"a","weight":-0,"contributes":[]}]}`,
		`{"requirements":[{"name":"é\ud800","weight":1e308,"contributes":null}]}`,
		`{"requirements":[{"weight":"heavy"}]}`,
		`[1,2,3]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := got.WriteJSON(&enc); err != nil {
			t.Fatalf("re-encoding a parsed set: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing %q: %v", enc.Bytes(), err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the set:\n  got %+v\nagain %+v", got, again)
		}
	})
}
