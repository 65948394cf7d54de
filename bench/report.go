package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func printEnvironment(w io.Writer, env environment) {
	fmt.Fprintf(w, "fedbench  commit %s  %s  GOMAXPROCS %d  nproc %d  %s\n",
		env.Commit, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel)
	fmt.Fprintf(w, "          seed %d  seconds %g  trace %v\n\n", env.Seed, env.Seconds, env.Trace)
}

// printResult prints one workload: its end-to-end metrics first (untraced
// runs), then whatever per-layer metrics it measured, then the layer table.
func printResult(w io.Writer, r *result, trace bool) {
	status := "ok"
	if !r.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "== %s: %s, %d ops and checks attempted, %d failed (failed_ops_ratio %.3g)\n",
		r.Workload, status, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	fmt.Fprintf(w, "   %-30s %14s %14s %14s %4s  %-6s %s\n", "metric", "median", "q1", "q3", "n", "unit", "bound")
	row := func(d metricDef) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f %%", d.Bound*100)
		}
		fmt.Fprintf(w, "   %-30s %14.6g %14.6g %14.6g %4d  %-6s %s\n", d.Name, m.Value, m.Q1, m.Q3, m.N, m.Unit, bound)
	}
	if !trace {
		for _, d := range endToEnd {
			row(d)
		}
	}
	for _, d := range perLayer {
		row(d)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "   %-30s %10s %12s %8s %14s\n", "layer (self time)", "spans", "self ms", "share", "ns per span")
		sum := int64(0)
		for _, l := range r.Layers {
			if l.Count == 0 {
				continue
			}
			sum += l.SelfNs
			fmt.Fprintf(w, "   %-30s %10d %12.3f %7.2f%% %14.1f\n", l.Name, l.Count, float64(l.SelfNs)/1e6, l.Share*100, l.meanSelf())
		}
		fmt.Fprintf(w, "   %-30s %10s %12.3f %7.2f%%  of %.3f ms traced wall-clock\n", "sum of rows", "",
			float64(sum)/1e6, float64(sum)/float64(r.WallNs)*100, float64(r.WallNs)/1e6)
	}
	fmt.Fprintln(w)
}

// readDocuments reads every run recorded in a -json file.
func readDocuments(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read only: nothing to lose
	var docs []document
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d document
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Env.GoVersion == "" {
			return nil, fmt.Errorf("%s: a run without an environment header", path)
		}
		docs = append(docs, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return docs, nil
}

// samplesOf collects one metric of one workload over every run of a set, in
// the order of the runs, with the seed of each.
func samplesOf(docs []document, workload, name string) (values []float64, seeds []int64) {
	for _, d := range docs {
		for _, r := range d.Workloads {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				values, seeds = append(values, m.Value), append(seeds, d.Env.Seed)
			}
		}
	}
	return values, seeds
}

// exactMetrics are counts that must repeat exactly between two runs of the
// same commit and seed: compared for equality, seed by seed, not against a
// bound.
var exactMetrics = []string{"fed.root_bytes_per_round", "bench.allocs_per_op"}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians and quartile ranges, how much worse the second is, and the bound,
// and marks what is outside it: a second median worse than the first by
// more than the bound, or — except for setup_s, which is set-up a few times
// per run, not measured for seconds — a quartile range wider than the bound.
// It returns the exit code: 1 when anything is marked.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readDocuments(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readDocuments(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s (%d runs, commit %s)   B: %s (%d runs, commit %s)\n",
		pathA, len(a), a[0].Env.Commit, pathB, len(b), b[0].Env.Commit)
	fmt.Fprintf(w, "%-18s %-26s %13s %8s %13s %8s %8s %6s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
	outside := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, _ := samplesOf(a, wl.Name, d.Name)
			vb, _ := samplesOf(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.Bound || (d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound) {
				mark = "  <-- outside its bound"
				outside++
			}
			fmt.Fprintf(w, "%-18s %-26s %13.6g %7.2f%% %13.6g %7.2f%% %+7.2f%% %5.0f%%%s\n",
				wl.Name, d.Name, ma, spreadA*100, mb, spreadB*100, worse*100, d.Bound*100, mark)
		}
		for _, name := range exactMetrics {
			va, seedsA := samplesOf(a, wl.Name, name)
			vb, seedsB := samplesOf(b, wl.Name, name)
			pairs, moved := 0, 0
			for i, seed := range seedsA {
				j := slices.Index(seedsB, seed)
				// Allocation counts repeat exactly only where there are none.
				if j < 0 || (name == "bench.allocs_per_op" && va[i] > 0) {
					continue
				}
				pairs++
				if math.Abs(va[i]-vb[j]) > 1e-9*math.Max(1, math.Abs(va[i])) {
					moved++
				}
			}
			if pairs == 0 {
				continue
			}
			mark := ""
			if moved > 0 {
				mark = "  <-- must repeat exactly"
				outside++
			}
			fmt.Fprintf(w, "%-18s %-26s %d of %d seeds in both sets repeat exactly%s\n", wl.Name, name, pairs-moved, pairs, mark)
		}
	}
	if outside > 0 {
		fmt.Fprintf(w, "%d metrics outside their bounds\n", outside)
		return 1
	}
	fmt.Fprintln(w, "every metric within its bound")
	return 0
}
