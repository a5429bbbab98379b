// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives the program's public layers from one
// process, checks every answer against the serialdfs oracle, and prints the
// workload's metrics; see README.md for the workloads and metrics.
//
//	go run . --workload analyst --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 1 the run also times
// each layer from the benchmark's side and writes a span dump and a per-layer
// summary under <root>/.bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aquila/internal/cli"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: analyst, serve-stream or serve-churn")
		seed    = flag.Uint64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 30, "measuring time, in seconds, shared among the run's phases")
		trace   = flag.Int("trace", 0, "1: also run the traced pass and print per-layer metrics")
		root    = flag.String("root", ".", "checkout root; work files go under <root>/.bench_build/perfbench")
		prep    = flag.String("prepare", "", "write the workload's inputs into this directory and exit")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *prep != "" {
		if err := prepare(w, *seed, *prep); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1"))
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run prepares the inputs in a subprocess, measures, and prints the result.
func run(w workload, seed uint64, seconds time.Duration, traced bool, root string) error {
	base := filepath.Join(root, ".bench_build", "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tPrep := time.Now()
	cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10), "--prepare", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	in, err := loadInputs(w, dir)
	if err != nil {
		return err
	}
	meta := runMeta(w, seed, seconds, traced, root)
	meta["prepare_s"] = time.Since(tPrep).Seconds()

	plain := measure(w, in, seconds, nil, !traced)
	out := result{Correct: plain.gate.failed == 0, Attempted: plain.gate.attempted, Failed: plain.gate.failed}
	meta["cells"] = plain.cells
	details := plain.gate.details
	if !traced {
		out.Metrics, meta["samples"] = plain.endToEnd()
		meta["generator"] = plain.generatorDiag()
	} else {
		tr := newTracer()
		tm := measure(w, in, seconds, tr, false)
		out.Correct = out.Correct && tm.gate.failed == 0
		out.Attempted += tm.gate.attempted
		out.Failed += tm.gate.failed
		details = append(details, tm.gate.details...)
		out.Metrics = tm.perLayer(tr)
		over := overhead(plain, tm)
		meta["overhead"] = over
		if err := writeTrace(base, w, seed, tr, out.Metrics, over, meta); err != nil {
			return err
		}
	}
	for _, d := range details {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", d)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", mb)
	rb, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	return nil
}

// result is the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta records the host, the toolchain, the commit and every workload
// parameter, so a number can be traced back to what produced it.
func runMeta(w workload, seed uint64, seconds time.Duration, traced bool, root string) map[string]any {
	return map[string]any{
		"workload":    w,
		"seed":        seed,
		"main_s":      share(seconds, mainShare).Seconds(),
		"secondary_s": share(seconds, secondaryShare).Seconds(),
		"traced":      traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"goos":        runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      gitCommit(root),
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git tree.
func gitCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// loadFn loads the graph at path with the CLI loader, as every command does.
func loadFn(path string) func() (*cli.LoadedGraph, error) {
	return func() (*cli.LoadedGraph, error) { return cli.LoadDirected(path, 0) }
}
