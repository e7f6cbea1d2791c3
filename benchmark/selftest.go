package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// selfTestSizes are the tiny corpus sizes the self-test runs at.
var selfTestSizes = map[string]int{"batch": 200, "query": 150, "churn": 80}

// runSelfTest runs every workload end to end at a tiny size, traced, and
// requires its output checks to pass; then it runs each again with one
// output deliberately corrupted before checking and requires the checks
// to catch it.
func runSelfTest() error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	for _, name := range []string{"batch", "query", "churn"} {
		for _, corrupt := range []bool{false, true} {
			opts := options{
				workload: name, seed: 1, seconds: 0.5, trace: !corrupt,
				size: selfTestSizes[name], setups: 1, quiet: true, corrupt: corrupt,
				scratch: filepath.Join(cwd, ".bench_build", fmt.Sprintf("selftest-%s-%d", name, os.Getpid())),
			}
			if err := os.MkdirAll(opts.scratch, 0o755); err != nil {
				return err
			}
			r := newRun(opts)
			err := workloads[name](r)
			os.RemoveAll(opts.scratch)
			if err != nil {
				return fmt.Errorf("%s (corrupt=%v): %w", name, corrupt, err)
			}
			r.mu.Lock()
			failures := append([]string(nil), r.failures...)
			r.mu.Unlock()
			switch {
			case !corrupt && len(failures) > 0:
				return fmt.Errorf("%s: clean run failed its checks: %s", name, failures[0])
			case corrupt && len(failures) == 0:
				return fmt.Errorf("%s: corrupted output was not caught", name)
			case corrupt:
				fmt.Printf("selftest %-5s corrupted output caught: %s\n", name, truncate(failures[0], 160))
			default:
				fmt.Printf("selftest %-5s clean run passed all checks (%d operations)\n", name, r.attempted.Load())
			}
		}
	}
	fmt.Println("selftest ok")
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
