package campaign

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/fsio"
)

// journalBytes serves one journal's bytes to replayJournal, which only
// reads; any other FS method panics on the nil embedded FS.
type journalBytes struct {
	fsio.FS
	data []byte
}

func (j journalBytes) ReadFile(string) ([]byte, error) { return j.data, nil }

// FuzzReplayJournal drives journal recovery over arbitrary bytes. Every
// input must either be rejected as corrupt or yield a valid prefix
// that replays to the same result on its own and takes a resumed
// append cleanly, with every recovered entry surviving a re-encode and
// replay unchanged.
func FuzzReplayJournal(f *testing.F) {
	for _, s := range []string{
		``,
		`{"id":"a","status":"done","attempt":1}` + "\n",
		`{"id":"a","status":"done"}` + "\n" + `{"id":"b","status":"do`,
		`{"id":"a","status":"do` + "\n" + `{"id":"b","status":"done"}` + "\n",
		"\n  \n" + `{"id":"a","status":"failed","error":"boom"}` + "\r\n\r\n" + `{"id":"a","status":"done","attempt":2}`,
		`{"id":"","status":"done"}` + "\n",
		`{"id":"a","status":"done"}{"id":"b","status":"done"}` + "\n",
		`{"id":"a/b","status":"panicked","stack":"goroutine 1\n","elapsed_ms":12}` + "\n" + `null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		last, lines, valid, err := replayJournal(journalBytes{data: data}, "")
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		again, againLines, againValid, err := replayJournal(journalBytes{data: data[:valid]}, "")
		if err != nil {
			t.Fatalf("replaying the valid prefix %q: %v", data[:valid], err)
		}
		if !reflect.DeepEqual(again, last) || againLines != lines || againValid != valid {
			t.Fatalf("valid prefix replays to %d lines, %d bytes, %+v; the whole input to %d, %d, %+v",
				againLines, againValid, again, lines, valid, last)
		}
		// Resume truncates the journal to valid and appends there; the
		// appended line must replay as a line of its own.
		next := Entry{ID: "fuzz/next", Status: StatusDone}
		line, err := jsonMarshalLine(next)
		if err != nil {
			t.Fatal(err)
		}
		grown := append(data[:valid:valid], line...)
		got, n, v, err := replayJournal(journalBytes{data: grown}, "")
		if err != nil || n != lines+1 || v != int64(len(grown)) || got[next.ID] != next {
			t.Fatalf("appending %q after the valid prefix %q: %d lines, valid %d, err %v; want %d lines, valid %d",
				line, data[:valid], n, v, err, lines+1, len(grown))
		}
		for id, e := range last {
			line, err := jsonMarshalLine(e)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", e, err)
			}
			got, n, v, err := replayJournal(journalBytes{data: line}, "")
			if err != nil || n != 1 || v != int64(len(line)) || !reflect.DeepEqual(got[id], e) {
				t.Fatalf("re-encoded %q replays to %+v (lines %d, valid %d, err %v), want %+v",
					line, got, n, v, err, e)
			}
		}
	})
}

// FuzzLoadPlan reads arbitrary bytes as a campaign's plan.json. Every
// input must be rejected, by LoadPlan or by the loaded Spec's Plan, or
// be one JSON value whose Spec survives a SavePlan → LoadPlan round
// trip unchanged.
func FuzzLoadPlan(f *testing.F) {
	saved := f.TempDir()
	if err := SavePlan(saved, &Spec{Name: "seed", Products: []string{"TrueSecure"}, Evals: true, SweepPoints: 3}); err != nil {
		f.Fatal(err)
	}
	plan, err := os.ReadFile(planFile(saved))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(plan),
		`{"name":"a","seed":3,"evals":true}{"name":"b","seed":9}`,
		`{"name":"a","seed":3,"evals":true} garbage`,
		`{"evals":true,"products":[],"traces":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(planFile(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := LoadPlan(dir)
		if err != nil {
			return
		}
		if _, err := spec.Plan(); err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("LoadPlan accepted %q, which is not one JSON value", data)
		}
		again := t.TempDir()
		if err := SavePlan(again, spec); err != nil {
			t.Fatalf("saving the plan loaded from %q: %v", data, err)
		}
		back, err := LoadPlan(again)
		if err != nil {
			t.Fatalf("reloading the plan loaded from %q: %v", data, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("%q loads as %+v but round-trips to %+v", data, spec, back)
		}
	})
}
