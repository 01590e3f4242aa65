package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare rates every (workload, end-to-end metric) of run set B
// against run set A, each a file of -json records from untraced runs:
//
//	unresolved    either side's interquartile spread exceeds the bound,
//	              unless every B run reads better than every A run
//	worse         B's median is worse than A's by more than the bound
//	within bound  otherwise
//
// It exits 0 only when every pair is within bound.
func runCompare(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "idsbench:", err)
		return 2
	}
	a, err := readRecords(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "idsbench:", err)
		return 2
	}
	bset, err := readRecords(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "idsbench:", err)
		return 2
	}
	var names []string
	for w := range a {
		if _, ok := bset[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "idsbench: the two files share no workload")
		return 2
	}

	code := 0
	fmt.Fprintf(stdout, "%-6s %-16s %12s %7s %12s %7s %6s  %s\n",
		"load", "metric", "A median", "A IQR", "B median", "B IQR", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a[w][m.Name], bset[w][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := verdict(av, bv, m.Bound, m.Better == "higher")
			if v != "within bound" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-6s %-16s %12.6g %6.1f%% %12.6g %6.1f%% %5.0f%%  %s\n",
				w, m.Name, median(av), 100*spread(av), median(bv), 100*spread(bv), 100*m.Bound, v)
		}
	}
	return code
}

// verdict rates run set b against run set a for one metric.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	better := func(x, y float64) bool { return (x > y) == higherBetter && x != y }
	if spread(a) > bound || spread(b) > bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "within bound"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "within bound"
}

// readRecords loads a -json file's untraced results as workload →
// metric → values.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}
