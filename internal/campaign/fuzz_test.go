package campaign

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsio"
)

// journalBytes serves one journal's bytes to fsio.ReplayLog, which
// only reads; any other FS method panics on the nil embedded FS.
type journalBytes struct {
	fsio.FS
	data []byte
}

func (j journalBytes) ReadFile(string) ([]byte, error) { return j.data, nil }

// replayBytes replays data as a journal and returns the last entry per
// ID and the valid prefix's length.
func replayBytes(t *testing.T, data []byte) (map[string]Entry, int64) {
	t.Helper()
	last := map[string]Entry{}
	valid, _, err := fsio.ReplayLog(journalBytes{data: data}, "", keepEntry(last, new(int)))
	if err != nil {
		t.Fatal(err)
	}
	return last, valid
}

// FuzzReplayJournal replays arbitrary bytes as a campaign journal. The
// log's own recovery rule is FuzzLog's (internal/fsio); here every
// entry the journal keeps must survive a re-encode: its line, written
// as the runner writes it, replays alone to an equal entry.
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
		last, _ := replayBytes(t, data)
		for id, e := range last {
			line, err := jsonMarshalLine(e)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", e, err)
			}
			got, valid := replayBytes(t, line)
			if valid != int64(len(line)) || len(got) != 1 || !reflect.DeepEqual(got[id], e) {
				t.Fatalf("re-encoded %q replays to %+v (valid %d of %d bytes), want %+v",
					line, got, valid, len(line), e)
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

// FuzzLoadResult reads arbitrary bytes as the result file of one
// experiment. Every input must be rejected, or load as a Result with
// the requested ID whose canonical bytes (encode, as commit writes
// them) load back to an equal Result.
func FuzzLoadResult(f *testing.F) {
	const id = "eval/TrueSecure"
	committed, err := (&Result{
		ID: id, Kind: KindEval, Product: "TrueSecure",
		Eval: &EvalResult{
			Scorecard:     json.RawMessage(`{"system":"TrueSecure","scores":[{"metric":"T1","score":3}]}`),
			DetectionRate: 0.875, FalseAlarms: 4, ZeroLossPps: 65536, MeanDelayNs: 239e6, EER: 0.4, EERValid: true,
		},
	}).encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(committed),
		strings.Replace(string(committed), id, "sweep/TrueSecure/p0", 1),
		string(committed[:len(committed)/2]),
		string(committed) + `{"id":"` + id + `"}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(resultsDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultFile(dir, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := loadResultFS(fsio.OS, dir, id)
		if err != nil {
			return
		}
		if res.ID != id {
			t.Fatalf("%q loads under id %q, want %q", data, res.ID, id)
		}
		b, err := res.encode()
		if err != nil {
			t.Fatalf("re-encoding the result loaded from %q: %v", data, err)
		}
		if err := os.WriteFile(resultFile(dir, id), b, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := loadResultFS(fsio.OS, dir, id)
		if err != nil {
			t.Fatalf("reloading the re-encoded %q: %v", b, err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("%q loads as %+v but round-trips to %+v", data, res, back)
		}
	})
}
