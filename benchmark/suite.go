package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// workloadSummary is one workload's runs of a suite and, per end-to-end
// metric, their median and interquartile spread as a share of it.
type workloadSummary struct {
	Name   string             `json:"name"`
	Runs   []*runResult       `json:"runs"`
	Median map[string]float64 `json:"median"`
	Spread map[string]float64 `json:"spread"`
	Traced *runResult         `json:"traced,omitempty"`
	Noisy  bool               `json:"noisy"`
}

// suiteResult is what -out writes.
type suiteResult struct {
	Meta      hostMeta          `json:"meta"`
	Started   string            `json:"started"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Repeats   int               `json:"repeats"`
	Workloads []workloadSummary `json:"workloads"`
}

// runChild runs one workload once in a fresh process of this binary, so
// that set-up time and peak memory are the workload's own, and returns
// the result it reports.
func runChild(stderr io.Writer, workload string, seed int64, seconds int, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, resultPrefix); ok {
			res := new(runResult)
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, fmt.Errorf("%s seed %d: bad result line: %w", workload, seed, err)
			}
			// A run that failed a gate exits non-zero but still reports.
			return res, nil
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	return nil, fmt.Errorf("%s seed %d: no result line", workload, seed)
}

// runSuite runs every workload repeats times, on seeds seed..seed+repeats-1,
// each run in its own child process, plus one traced run per workload when
// asked.
func runSuite(progress io.Writer, seed int64, repeats, seconds int, traced bool) (*suiteResult, error) {
	s := &suiteResult{
		Meta: readHostMeta(), Started: time.Now().UTC().Format(time.RFC3339),
		Seed: seed, Seconds: seconds, Repeats: repeats,
	}
	for _, spec := range workloads {
		sum := workloadSummary{Name: spec.Name, Median: map[string]float64{}, Spread: map[string]float64{}}
		for i := 0; i < repeats; i++ {
			res, err := runChild(progress, spec.Name, seed+int64(i), seconds, false)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(progress, "%s seed %d: %.1f req/s, p50 %.3f ms, p95 %.3f ms, correct %v\n",
				spec.Name, res.Seed, res.Metrics["req_per_s"], res.Metrics["lat_ms_p50"], res.Info["lat_ms_p95"], res.Correct)
			sum.Runs = append(sum.Runs, res)
			sum.Noisy = sum.Noisy || res.Noisy
		}
		for _, d := range endToEnd {
			vals := make([]float64, len(sum.Runs))
			for i, res := range sum.Runs {
				vals[i] = res.Metrics[d.Name]
			}
			sum.Median[d.Name] = median(vals)
			sum.Spread[d.Name] = relSpread(vals)
		}
		if traced {
			res, err := runChild(progress, spec.Name, seed, seconds, true)
			if err != nil {
				return nil, err
			}
			sum.Traced = res
		}
		s.Workloads = append(s.Workloads, sum)
	}
	return s, nil
}

func (s *suiteResult) correct() bool {
	for _, w := range s.Workloads {
		for _, res := range w.Runs {
			if !res.Correct || res.Failed > 0 {
				return false
			}
		}
		if w.Traced != nil && !w.Traced.Correct {
			return false
		}
	}
	return true
}

func (s *suiteResult) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (s *suiteResult) print(w io.Writer) {
	m := s.Meta
	fmt.Fprintf(w, "host: %s/%s nproc %d GOMAXPROCS %d kernel %s %s commit %q\n",
		m.GOOS, m.GOARCH, m.NProc, m.GOMAXPROCS, m.Kernel, m.GoVersion, m.Commit)
	fmt.Fprintf(w, "seed %d  seconds %d  repeats %d\n", s.Seed, s.Seconds, s.Repeats)
	for _, sum := range s.Workloads {
		flag := ""
		if sum.Noisy {
			flag = "  [noisy]"
		}
		fmt.Fprintf(w, "\n%s (%d stream(s) x %d reps per run)%s\n", sum.Name, sum.Runs[0].Streams, sum.Runs[0].Reps, flag)
		fmt.Fprintf(w, "  %-16s %14s %-6s %8s  %s\n", "metric", "median", "unit", "spread", "bound")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-16s %14.6g %-6s %7.2f%%  %.0f%%\n", d.Name, sum.Median[d.Name], d.Unit, 100*sum.Spread[d.Name], 100*d.Bound)
		}
		attempted, failed := 0, 0
		for _, res := range sum.Runs {
			attempted += res.Attempted
			failed += res.Failed
			for _, note := range res.Notes {
				fmt.Fprintf(w, "  note (seed %d): %s\n", res.Seed, note)
			}
		}
		fmt.Fprintf(w, "  fail_frac %.6g (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
		if t := sum.Traced; t != nil {
			na := map[string]bool{}
			for _, name := range t.NA {
				na[name] = true
			}
			fmt.Fprintf(w, "  layer table (traced run, seed %d):\n", t.Seed)
			for _, d := range perLayer {
				if !na[d.Name] {
					fmt.Fprintf(w, "    %-40s %14.6g %s\n", d.Name, t.Metrics[d.Name], d.Unit)
				}
			}
		}
	}
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck is the A/A test: two full sets from the same binary must
// agree, in both directions, within every end-to-end metric's own bound.
func runSelfcheck(stdout, progress io.Writer, seed int64, repeats, seconds int) (bool, error) {
	a, err := runSuite(progress, seed, repeats, seconds, false)
	if err != nil {
		return false, err
	}
	b, err := runSuite(progress, seed, repeats, seconds, false)
	if err != nil {
		return false, err
	}
	ok := a.correct() && b.correct()
	fmt.Fprintf(stdout, "%-22s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "set A", "set B", "differ", "bound", "verdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			ma, mb := wa.Median[d.Name], wb.Median[d.Name]
			diff := worseBy(d, ma, mb)
			if back := worseBy(d, mb, ma); back > diff {
				diff = back
			}
			verdict := "agree"
			if diff > d.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(stdout, "%-22s %-16s %14.6g %14.6g %7.2f%% %5.0f%%  %s\n", wa.Name, d.Name, ma, mb, 100*diff, 100*d.Bound, verdict)
		}
		if wa.Noisy || wb.Noisy {
			fmt.Fprintf(stdout, "%-22s a run was flagged noisy (calibration kernel moved more than %.0f%%)\n", wa.Name, 100*noisyCalibFrac)
		}
	}
	if !a.correct() || !b.correct() {
		fmt.Fprintln(stdout, "a correctness gate failed or a request failed; see the notes above")
	}
	return ok, nil
}
