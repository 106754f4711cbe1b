package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// selfCheck is the acceptance test the benchmark applies to itself: two
// interleaved sets of n runs per workload on the same tree, run i of
// both sets with seed i. For every workload and end-to-end metric it
// prints both medians, how much worse the second is than the first,
// each set's interquartile spread as a share of its median, and
// whether all of that stays within the metric's bound. The markdown
// goes to standard output; progress goes to standard error.
func selfCheck(n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	exact := [2]map[string][]string{{}, {}} // workload -> "# exact:" line per seed
	var walls []float64
	failed := 0
	for seed := 1; seed <= n; seed++ {
		for _, w := range workloads {
			for set := range sets {
				t0 := time.Now()
				res, stdout, err := runChild(self, w.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				walls = append(walls, time.Since(t0).Seconds())
				fmt.Fprintf(os.Stderr, "%s seed %d set %c: %.1fs failed=%d\n", w.Name, seed, 'A'+set, walls[len(walls)-1], res.Failed)
				failed += res.Failed
				for name, v := range res.Metrics {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], v.Value)
				}
				for _, line := range strings.Split(stdout, "\n") {
					if strings.HasPrefix(line, "# exact:") {
						exact[set][w.Name] = append(exact[set][w.Name], line)
					}
				}
			}
		}
	}

	fmt.Printf("# Self-check: two interleaved sets of %d runs per workload, seeds 1..%d\n\n", n, n)
	fmt.Printf("`--seconds %d`; a run took %.1f s (median) and %.1f s (max) wall including set-up; ops_failed summed over all runs: %d.\n\n",
		seconds, median(walls), sorted(walls)[len(walls)-1], failed)
	fmt.Println("`worse` is how far set B's median is on the worse side of set A's, as a share of A's; `iqr` is (Q3-Q1)/median")
	fmt.Println("over a set's runs, quartiles as Python's `statistics.quantiles(n=4)`. A row passes when `worse` and, except for")
	fmt.Println("`setup_s`, both `iqr`s are within the bound.")
	fmt.Println()
	fmt.Println("| workload | metric | bound | median A | median B | worse | iqr A | iqr B | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	ok := failed == 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			ia, ib := iqrFrac(a), iqrFrac(b)
			pass := worse <= d.Bound && (d.Name == "setup_s" || (ia <= d.Bound && ib <= d.Bound))
			verdict := "pass"
			if !pass {
				verdict, ok = "**FAIL**", false
			}
			fmt.Printf("| %s | %s | %.2f | %.6g | %.6g | %+.4f | %.4f | %.4f | %s |\n",
				w.Name, d.Name, d.Bound, ma, mb, worse, ia, ib, verdict)
		}
	}
	fmt.Println()
	for _, w := range workloads {
		if w.ranks != 1 {
			continue
		}
		same := len(exact[0][w.Name]) == n && fmt.Sprint(exact[0][w.Name]) == fmt.Sprint(exact[1][w.Name])
		fmt.Printf("Exact counters and graph hash on `%s`, per seed, identical across both sets: **%v**\n\n", w.Name, same)
		for _, line := range exact[0][w.Name] {
			fmt.Printf("    %s\n", strings.TrimPrefix(line, "# exact: "))
		}
		ok = ok && same
	}
	if !ok {
		return fmt.Errorf("self-check failed")
	}
	return nil
}

// runChild runs one untraced run of a workload in a fresh process and
// decodes the result line it ends with.
func runChild(self, workload string, seed, seconds int) (*result, string, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", err
	}
	text := strings.TrimRight(stdout.String(), "\n")
	var res result
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &res); err != nil {
		return nil, "", fmt.Errorf("result line: %w", err)
	}
	return &res, text, nil
}
