// Command bench is the repository's end-to-end benchmark: five closed-loop
// workloads over the multistore system, every answer checked against an
// HV-ONLY oracle, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// rounds is how many times an untraced run sets up and measures; a metric's
// value is the median over them.
const rounds = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	quick    bool
	out      string
	traceDir string
	spec     string
}

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 42, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload and run")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics, 1: per-layer metrics from a traced run, both")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: small data, one round")
	flag.StringVar(&o.out, "out", "", "write the full result to this file")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join("bench", "out"), "directory a traced run writes its span files to")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark's description, where the regression bounds live")
	flag.Parse()

	var err error
	if *compare {
		err = compareFiles(o.spec, flag.Args(), os.Stdout)
	} else if flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the least and greatest value over the rounds, Samples the
	// number of timings behind a percentile.
	Spread  *[2]float64 `json:"spread,omitempty"`
	Samples int         `json:"samples,omitempty"`
}

type workloadResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Problems  []string         `json:"problems,omitempty"`
	// CalibMs is the calibration kernel's time, median over the untraced
	// rounds: end-to-end times are scaled by calibNominal over it.
	CalibMs float64 `json:"calib_ms,omitempty"`
}

type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Quick      bool    `json:"quick"`
}

type result struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// job is one workload's part of a run: its rounds, then its result.
type job struct {
	rn  *runner
	res *workloadResult

	untraced               []*round
	counts, single, probes *round
}

func (j *job) add(rd *round) {
	j.res.Attempted += rd.attempted
	j.res.Failed += rd.failed
	j.res.Problems = append(j.res.Problems, rd.problems...)
}

// round runs one round of the workload's shape.
func (j *job) round(budget time.Duration, kind roundKind, clients int) (*round, error) {
	var rd *round
	var err error
	if j.rn.w.served {
		rd, err = j.rn.streamRound(budget, clients, kind != probed, kind)
	} else {
		rd, err = j.rn.passRound(budget, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.rn.w.name, err)
	}
	j.add(rd)
	return rd, nil
}

// steps lists the job's rounds, so that a run of several workloads can
// take them in turn and a noisy minute is spread over all of them.
func (j *job) steps(o options, nRounds int) []func() error {
	total := time.Duration(o.seconds * float64(time.Second))
	var steps []func() error
	if o.trace != "1" {
		for i := 0; i < nRounds; i++ {
			steps = append(steps, func() error {
				rd, err := j.round(total/time.Duration(nRounds), untraced, j.rn.clients)
				j.untraced = append(j.untraced, rd)
				return err
			})
		}
	}
	if o.trace != "0" {
		// A served workload also measures one client alone, for the scale-up
		// and as the base of the tracing overhead.
		parts := time.Duration(2)
		if j.rn.w.served {
			parts = 3
			steps = append(steps, func() (err error) {
				j.single, err = j.round(total/parts, untraced, 1)
				return err
			})
		}
		steps = append(steps, func() (err error) {
			j.counts, err = j.round(total/parts, counted, j.rn.clients)
			return err
		}, func() (err error) {
			j.probes, err = j.round(total/parts, probed, j.rn.clients)
			return err
		})
	}
	return steps
}

// finish folds the rounds into the job's result.
func (j *job) finish() {
	if len(j.untraced) > 0 {
		j.res.EndToEnd = map[string]value{}
		perRound := make([]map[string]float64, len(j.untraced))
		samples := 0
		var calib []float64
		for i, rd := range j.untraced {
			perRound[i] = endToEndValues(rd)
			samples += len(rd.latMs)
			calib = append(calib, median(rd.calibMs))
		}
		j.res.CalibMs = median(calib)
		for _, m := range endToEnd {
			xs := make([]float64, len(perRound))
			for i, vals := range perRound {
				xs[i] = vals[m.name]
			}
			d := newDist(xs)
			v := value{Value: d.p(50), Unit: m.unit, Spread: &[2]float64{d.min(), d.max()}}
			if m.name == "query_p50_ms" || m.name == "query_p95_ms" {
				v.Samples = samples
			}
			j.res.EndToEnd[m.name] = v
		}
	}
	if j.counts != nil {
		j.res.PerLayer = map[string]value{}
		vals := perLayerValues(j.rn.w, j.counts, j.single, j.probes)
		for _, m := range perLayer {
			j.res.PerLayer[m.name] = value{Value: vals[m.name], Unit: m.unit}
		}
	}
	j.res.Correct = j.res.Failed == 0
}

func run(o options) error {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive number", o.seconds)
	}
	if spec, err := readBenchmarkFile(o.spec); err == nil {
		if err := spec.checkAgainst(); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	todo := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	nRounds := rounds
	if o.quick {
		nRounds = 1
	}
	in, err := newInputs(o.seed, o.quick)
	if err != nil {
		return err
	}

	res := &result{
		Meta: meta{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit(), Seed: o.seed, Seconds: o.seconds, Rounds: nRounds, Quick: o.quick,
		},
		Workloads: map[string]*workloadResult{},
	}
	var jobs []*job
	var steps [][]func() error
	for _, w := range todo {
		var rec *recorder
		if o.trace != "0" {
			rec = newRecorder()
		}
		rn, err := newRunner(w, in, rec)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		j := &job{rn: rn, res: &workloadResult{}}
		res.Workloads[w.name] = j.res
		jobs = append(jobs, j)
		steps = append(steps, j.steps(o, nRounds))
	}
	for i := 0; ; i++ {
		ran := false
		for _, s := range steps {
			if i < len(s) {
				ran = true
				if err := s[i](); err != nil {
					return err
				}
			}
		}
		if !ran {
			break
		}
	}
	for _, j := range jobs {
		j.finish()
		if j.rn.rec != nil {
			path := filepath.Join(o.traceDir, "trace-"+j.rn.w.name+".json")
			if err := j.rn.rec.write(path); err != nil {
				return err
			}
		}
	}

	if o.out != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return report(res, todo, o)
}

// report prints every metric by name with its unit and, for a single
// workload, the one-line result a driver reads last.
func report(res *result, todo []workload, o options) error {
	m := res.Meta
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g rounds=%d quick=%v\n",
		m.NProc, m.GOMAXPROCS, m.Go, m.Commit, m.Seed, m.Seconds, m.Rounds, m.Quick)
	wrong := false
	for _, w := range todo {
		r := res.Workloads[w.name]
		fmt.Printf("\n%s: correct=%v attempted=%d failed=%d calib_ms=%.2f\n", w.name, r.Correct, r.Attempted, r.Failed, r.CalibMs)
		for _, p := range r.Problems {
			fmt.Printf("  PROBLEM %s\n", p)
		}
		for _, md := range endToEnd {
			if v, ok := r.EndToEnd[md.name]; ok {
				fmt.Printf("  %-32s %14.4f %-6s spread %.4f..%.4f", md.name, v.Value, v.Unit, v.Spread[0], v.Spread[1])
				if v.Samples > 0 {
					fmt.Printf("  n=%d, a round's supports p%d", v.Samples, tail(v.Samples/m.Rounds))
				}
				fmt.Println()
			}
		}
		for _, md := range perLayer {
			if v, ok := r.PerLayer[md.name]; ok {
				fmt.Printf("  %-32s %14.4f %s\n", md.name, v.Value, v.Unit)
			}
		}
		wrong = wrong || !r.Correct
	}
	if len(todo) == 1 && o.trace != "both" {
		r := res.Workloads[todo[0].name]
		metrics := r.EndToEnd
		if o.trace == "1" {
			metrics = r.PerLayer
		}
		line := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
		for name, v := range metrics {
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
		raw, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", raw)
	}
	if wrong {
		return errors.New("a workload failed its correctness gate")
	}
	return nil
}
