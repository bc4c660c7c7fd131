package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
)

// runRecord is one run's report line and result line.
type runRecord struct {
	workload, fingerprint string
	metrics               map[string]metricValue
}

// readRuns reads the runs whose standard output a file holds: each
// report line followed by its result line.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var pending *runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.Contains(line, `"report":"perfbench"`):
			var rep struct {
				Workload   string `json:"workload"`
				Comparable string `json:"comparable"`
			}
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			pending = &runRecord{workload: rep.Workload, fingerprint: rep.Comparable}
		case pending != nil && strings.HasPrefix(line, `{"correct"`):
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			pending.metrics = res.Metrics
			runs = append(runs, *pending)
			pending = nil
		}
	}
	return runs, sc.Err()
}

// compareReports prints, per workload and metric, the median of the
// runs in a base file against those in a new file. Workloads whose
// runs come from more than one host fingerprint are reported as not
// comparable instead of compared.
func compareReports(w io.Writer, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("--compare takes two files (base, new), got %d", len(files))
	}
	var sides [2]map[string][]runRecord
	for i, path := range files {
		runs, err := readRuns(path)
		if err != nil {
			return err
		}
		sides[i] = map[string][]runRecord{}
		for _, r := range runs {
			sides[i][r.workload] = append(sides[i][r.workload], r)
		}
	}
	for _, wl := range slices.Sorted(maps.Keys(sides[0])) {
		base, next := sides[0][wl], sides[1][wl]
		if len(next) == 0 {
			continue
		}
		prints := map[string]bool{}
		for _, r := range append(append([]runRecord(nil), base...), next...) {
			prints[r.fingerprint] = true
		}
		if len(prints) > 1 {
			fmt.Fprintf(w, "%s: not comparable, runs come from %d hosts (%s)\n", wl, len(prints), strings.Join(slices.Sorted(maps.Keys(prints)), ", "))
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(base[0].metrics)) {
			b, n := values(base, name), values(next, name)
			if len(n) == 0 {
				continue
			}
			mb, mn := median(b), median(n)
			fmt.Fprintf(w, "%s %s: base %.6g (n=%d) new %.6g (n=%d) change %+.2f%%\n",
				wl, name, mb, len(b), mn, len(n), (mn/mb-1)*100)
		}
	}
	return nil
}

func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
