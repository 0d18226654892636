// Command perfbench is the repository's end-to-end benchmark. One
// invocation measures one workload and prints, as its last line, a JSON
// object with the correctness verdict, the attempted and failed operation
// counts, and the metrics of BENCHMARK.json:
//
//	go run . --workload genet-abr --seed 1 --seconds 20 --trace 0
//
// Workloads: genet-abr and genet-cc (fixed-budget Genet curriculum runs),
// serve-http (open-loop /decide traffic over loopback TCP). --trace 0
// prints the end-to-end metrics; --trace 1 makes a separate traced run and
// prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "genet-abr | genet-cc | serve-http")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 20, "measuring time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	work := fs.String("workdir", ".bench_build", "directory for model files and span traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	traced := *trace == 1
	// Opened before the workload starts any goroutine, so the runtime has
	// few threads and every later one inherits a counter.
	ic, err := newInstrCounter()
	if err != nil {
		return err
	}
	defer ic.close()
	var tw *traceWriter
	if traced {
		tw = &traceWriter{}
	}
	dur := time.Duration(*seconds) * time.Second
	workDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(workDir)

	var o *outcome
	switch *workload {
	case "genet-abr":
		o, err = runTrain(trainCase{useCase: "abr", seeds: 45}, *seed, dur, traced, tw, ic)
	case "genet-cc":
		o, err = runTrain(trainCase{useCase: "cc", seeds: 16}, *seed, dur, traced, tw, ic)
	case "serve-http":
		o, err = runServe(*seed, dur, traced, workDir, tw, ic)
	default:
		return fmt.Errorf("unknown workload %q (want genet-abr | genet-cc | serve-http)", *workload)
	}
	if err != nil {
		return err
	}
	// serve-http reports the peak of its serving slices itself; the
	// training workloads' mark was restarted before their timed runs.
	if _, ok := o.values["peak_rss_mb"]; !ok {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		o.set("peak_rss_mb", rss)
	}
	if o.attempted > 0 {
		o.set("fail_ratio", float64(o.failed)/float64(o.attempted))
	}
	fmt.Fprintf(stderr, "%s seed %d trace %d:\n", *workload, *seed, *trace)
	o.printTable(stderr)

	catalog := endToEnd
	if traced {
		catalog = perLayer
		path := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.trace.json", *workload, *seed))
		if err := tw.write(path); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "spans:", path)
	}
	res, err := o.result(catalog, !traced)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
