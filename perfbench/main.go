package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ladder/internal/timing"
)

// workloads are the benchmark's workload names.
var workloads = []string{"paper-eval", "long-write", "service-mix"}

// readyLine is what a child prints the moment timing.DefaultTableSet
// returns; the parent times set-up from process start to this line.
const readyLine = "perfbench: tables ready"

// setupProbes is how many extra cold processes a run starts only to time
// set-up; with the worker's own set-up that makes two samples. Each cold
// set-up costs about nine seconds of every run on a 2-vCPU host, so a
// third sample would add about ten minutes to the 70 runs a full
// benchmark pass of three workloads makes.
const setupProbes = 1

// runTimeout bounds a whole run, children included.
const runTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	role     string
	spans    string
	record   string
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long a run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.role, "role", "", "internal: probe or worker (children of a run); check; record")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans.json", "traced runs write their spans here")
	fs.StringVar(&o.record, "record", "perfbench/reference.json", "record role: where to write reference digests")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch o.role {
	case "":
		err = drive(o)
	case "probe":
		err = probe()
	case "worker":
		err = work(o)
	case "check":
		err = check(o)
	case "record":
		err = record(o)
	default:
		err = fmt.Errorf("unknown role %q", o.role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func validate(o options) error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloads, ", "))
	case o.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	return nil
}

// coldEnv is the environment children run in: no table cache, so every
// process generates its tables from scratch, and no debug printer.
func coldEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "LADDER_TABLE_CACHE=") || strings.HasPrefix(kv, "LADDER_DEBUG=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// drive runs one benchmark run: set-up probes, then the worker, each a
// fresh process; it prints the worker's log and the final result line.
func drive(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var setups []float64
	if o.trace == 0 {
		for i := 0; i < setupProbes; i++ {
			d, _, err := child(ctx, exe, []string{"--role", "probe"}, os.Stdout)
			if err != nil {
				return fmt.Errorf("set-up probe: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
	}
	args := []string{"--role", "worker", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace), "--spans", o.spans}
	d, last, err := child(ctx, exe, args, os.Stdout)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return fmt.Errorf("worker result %q: %w", last, err)
	}
	if o.trace == 0 {
		setups = append(setups, d.Seconds())
		res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s"}
		fmt.Printf("setup_s samples (process start to tables ready, cold): %v\n", setups)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// child runs the benchmark binary with args in a cold environment. It
// returns the time from starting the process to its ready line, and its
// last output line; other lines are copied to log.
func child(ctx context.Context, exe string, args []string, log io.Writer) (time.Duration, string, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = coldEnv()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", err
	}
	var ready time.Duration
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && ready == 0 {
			ready = time.Since(start)
			continue
		}
		if last != "" {
			fmt.Fprintln(log, last)
		}
		last = line
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, "", err
	}
	if scanErr != nil {
		return 0, "", scanErr
	}
	if ready == 0 {
		return 0, "", errors.New("child never reported its tables ready")
	}
	return ready, last, nil
}

// probe is a set-up probe: generate the default tables cold, report,
// exit.
func probe() error {
	os.Unsetenv("LADDER_TABLE_CACHE")
	if _, err := timing.DefaultTableSet(); err != nil {
		return err
	}
	fmt.Println(readyLine)
	return nil
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// provenance is printed next to every run's metrics.
func provenance(o options, idx int) string {
	return fmt.Sprintf("provenance: workload=%s seed=%d ref_index=%d sim_seed=%d go=%s gomaxprocs=%d nproc=%d trace=%d",
		o.workload, o.seed, idx, simSeed(idx), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), o.trace)
}
