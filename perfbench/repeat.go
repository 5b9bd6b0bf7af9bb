package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory; without one, no bounds are shown.
func loadBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec benchSpec
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// repeatRuns runs the workload n times as child processes of this
// binary, one seed each from seed up, and prints every metric's median,
// quartiles and spread (interquartile range over median) — the
// steadiness the acceptance rule checks, and the numbers a
// parent-versus-change comparison needs from each side.
func repeatRuns(n int, args []string, name string, seed int64, traced bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	base := withoutFlags(args, "repeat", "seed")
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(append([]string(nil), base...), "--seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		logPath := filepath.Join(".bench_build", "repeat", fmt.Sprintf("%s-%d.txt", name, s))
		if os.MkdirAll(filepath.Dir(logPath), 0o755) == nil {
			os.WriteFile(logPath, out, 0o644) // best effort: the log is for reading, not for the verdict
		}
		res, perr := lastResult(out)
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			status = 1
		case perr != nil:
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, perr)
			status = 1
			continue
		case !res.Correct:
			status = 1
		}
		if perr != nil {
			continue
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		line := fmt.Sprintf("seed %d: correct %v attempted %d failed %d", s, res.Correct, res.Attempted, res.Failed)
		if !traced {
			for _, k := range keys {
				line += fmt.Sprintf(" %s %.6g", k, res.Metrics[k].Value)
			}
		}
		fmt.Fprintf(stdout, "%s (log %s)\n", line, logPath)
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	bounds := map[string]float64{}
	if !traced {
		bounds = loadBounds()
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "%s: %d runs\n", name, n)
	fmt.Fprintf(stdout, "  %-34s %8s %14s %14s %14s %9s %7s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, k := range keys {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		line := fmt.Sprintf("  %-34s %8s %14.6g %14.6g %14.6g %8.2f%%", k, units[k], q1, q2, q3, 100*spread)
		if b, ok := bounds[k]; ok {
			verdict := "steady"
			if spread > b/3 {
				verdict = "NOT steady (spread above bound/3)"
			}
			line += fmt.Sprintf(" %6.1f%% %s", 100*b, verdict)
		}
		fmt.Fprintln(stdout, line)
	}
	return status
}

// withoutFlags drops the named flags (and their values) from args.
func withoutFlags(args []string, names ...string) []string {
	drop := map[string]bool{}
	for _, n := range names {
		drop["-"+n] = true
		drop["--"+n] = true
	}
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		key := a
		if j := bytes.IndexByte([]byte(a), '='); j >= 0 {
			key = a[:j]
		}
		if drop[key] {
			if key == a {
				i++ // the value is the next argument
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// errNoResult marks a child run whose output had no result line.
var errNoResult = errors.New("no result line")

// lastResult parses the result line a run ends with.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if last == nil {
		return res, errNoResult
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%w: %v", errNoResult, err)
	}
	return res, nil
}
