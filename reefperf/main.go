// Command reefperf is reef's end-to-end benchmark. It runs one workload
// from a seed for a number of rounds set by --seconds, checks the
// program's outputs, and prints one JSON line of metrics: the
// end-to-end metrics untraced, or the per-layer metrics with --trace 1.
// See README.md.
//
//	reefperf --workload stream-reliable --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// results accumulates one run's raw samples over all its rounds.
type results struct {
	setupS, recoverS, heapMB             []float64
	publishUs, deliverUs, callUs, lateUs []float64
	sustained, clicks                    rate
	busy                                 busyCost
	busyOps                              int64
	cpuPerOp, allocsPerOp                []float64 // per round
	attempted, failed                    int64
	consumed, acks                       int64 // reliable deliveries received and acks sent

	// One figure per interleaved slice of the measured phases, and
	// where the current slice's samples start.
	slices struct{ publish, deliver, call, sustained, clicks []float64 }
	mark   struct {
		publish, deliver, call int
		sustained, clicks      rate
	}
}

// startSlice marks the start of one slice of the measured phases.
func (r *results) startSlice() {
	r.mark.publish, r.mark.deliver, r.mark.call = len(r.publishUs), len(r.deliverUs), len(r.callUs)
	r.mark.sustained, r.mark.clicks = r.sustained, r.clicks
}

// endSlice takes the slice's latency p50s and rates.
func (r *results) endSlice() {
	p50 := func(dst *[]float64, samples []float64) {
		if len(samples) > 0 {
			*dst = append(*dst, median(append([]float64(nil), samples...)))
		}
	}
	p50(&r.slices.publish, r.publishUs[r.mark.publish:])
	p50(&r.slices.deliver, r.deliverUs[r.mark.deliver:])
	p50(&r.slices.call, r.callUs[r.mark.call:])
	perSecond := func(dst *[]float64, now, mark rate) {
		if d := (rate{now.ops - mark.ops, now.elapsed - mark.elapsed}); d.elapsed > 0 {
			*dst = append(*dst, d.perSecond())
		}
	}
	perSecond(&r.slices.sustained, r.sustained, r.mark.sustained)
	perSecond(&r.slices.clicks, r.clicks, r.mark.clicks)
}

// rate sums the operations and the time of one phase over all rounds.
type rate struct {
	ops     int64
	elapsed time.Duration
}

func (r *rate) add(ops int, elapsed time.Duration) {
	r.ops += int64(ops)
	r.elapsed += elapsed
}

// perSecond is the phase's operations over its whole time.
func (r rate) perSecond() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ops) / r.elapsed.Seconds()
}

func (r *results) addBusy(c busyCost, ops int) {
	r.busy.add(c)
	r.busyOps += int64(ops)
	r.cpuPerOp = append(r.cpuPerOp, us(c.CPU)/float64(ops))
	r.allocsPerOp = append(r.allocsPerOp, float64(c.Mallocs)/float64(ops))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// figures turns the raw samples into the run's figures. The latencies
// and rates are medians over the run's slices of each slice's p50, or
// of its operations over its whole time; set-up and recovery times and
// the costs the process counts (CPU, allocations, heap) are medians over
// the rounds. A run has a fixed number of rounds and slices, so no
// figure is a best or a peak of a number of draws that depends on the
// program's speed.
func (r *results) figures() map[string]metric {
	return map[string]metric{
		"setup_s":        {median(r.setupS), "s"},
		"publish_p50_us": {median(r.slices.publish), "us"},
		"deliver_p50_us": {median(r.slices.deliver), "us"},
		"call_p50_us":    {median(r.slices.call), "us"},
		"sustained_eps":  {median(r.slices.sustained), "events/s"},
		"clicks_per_s":   {median(r.slices.clicks), "clicks/s"},
		"recover_s":      {median(r.recoverS), "s"},
		"heap_live_mb":   {median(r.heapMB), "MB"},
		"cpu_us_per_op":  {median(r.cpuPerOp), "us"},
		"allocs_per_op":  {median(r.allocsPerOp), "count"},
	}
}

// endToEnd are the figures a later change is held to: set-up time and
// the allocations and memory the process counts. On the shared
// reference box the host's load moves every wall-clock latency and rate
// of a run by 15-40% together, and the CPU per operation by up to 20%
// on cluster-replicated, more than a bound can hold; those figures are
// the traced run's layer metrics instead (see README.md).
var endToEnd = []string{"setup_s", "allocs_per_op", "heap_live_mb"}

// layerFigures names, for each unbounded figure, the per-layer metric
// that reports it.
var layerFigures = map[string]string{
	"publish_p50_us": "gen.publish_p50_us",
	"deliver_p50_us": "gen.deliver_p50_us",
	"call_p50_us":    "gen.call_p50_us",
	"sustained_eps":  "gen.sustained_eps",
	"clicks_per_s":   "gen.clicks_per_s",
	"recover_s":      "durable.recover_s",
	"cpu_us_per_op":  "runtime.cpu_us_per_op",
}

type roundFunc func(ctx context.Context, dir string, res *results) error

// workloadSpec builds a round from the seed's inputs. A run makes
// --seconds / roundSeconds rounds (at least one), whatever the
// program's speed.
type workloadSpec struct {
	roundSeconds int
	make         func(seed int64) roundFunc
}

var workloads = map[string]workloadSpec{
	"attention-pipeline": {apRoundSeconds, func(seed int64) roundFunc {
		in := makeAttentionInput(seed)
		return func(ctx context.Context, dir string, res *results) error {
			return attentionRound(ctx, in, dir, res)
		}
	}},
	"cluster-replicated": {crRoundSeconds, func(seed int64) roundFunc {
		in := makeClusterInput(seed)
		return func(ctx context.Context, dir string, res *results) error {
			return clusterRound(ctx, in, dir, res)
		}
	}},
	"stream-reliable": {srRoundSeconds, func(seed int64) roundFunc {
		in := makeStreamInput(seed)
		return func(ctx context.Context, dir string, res *results) error {
			return streamRound(ctx, in, dir, res)
		}
	}},
}

func main() {
	name := flag.String("workload", "", "workload to run: stream-reliable, attention-pipeline or cluster-replicated")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 0, "how long to measure, in seconds (required)")
	trace := flag.Int("trace", 0, "1 to time each layer and print the per-layer metrics")
	dataDir := flag.String("data", ".bench_build/reefperf-data", "directory for the deployments' data directories")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "reefperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "reefperf: --seconds must be positive")
		os.Exit(2)
	}
	if *trace == 1 {
		tr = newTracer()
	}
	rounds := max(1, *seconds/w.roundSeconds)
	out, err := run(w.make(*seed), *dataDir, rounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reefperf: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reefperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes the given number of whole rounds, each attempting the same
// operations.
func run(round roundFunc, dataDir string, rounds int) (output, error) {
	base, err := filepath.Abs(filepath.Join(dataDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(base)
	ctx := context.Background()
	res := &results{}
	correct := true
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		pub, del, call := len(res.publishUs), len(res.deliverUs), len(res.callUs)
		sus, clk, cpu, heap := res.sustained, res.clicks, len(res.cpuPerOp), len(res.heapMB)
		if err := round(ctx, roundDir(base, i), res); err != nil {
			fmt.Fprintf(os.Stderr, "reefperf: round %d: %v\n", i, err)
			correct = false
		}
		if tr != nil {
			tr.roundDone()
		}
		p50 := func(s []float64) float64 { return median(append([]float64(nil), s...)) }
		fmt.Fprintf(os.Stderr, "reefperf: round %d took %.2fs: publish p50 %.0fus, deliver p50 %.0fus, call p50 %.0fus, %.0f events/s, %.0f clicks/s, cpu %.1f us/op, heap %.1f MB\n",
			i, time.Since(t0).Seconds(), p50(res.publishUs[pub:]), p50(res.deliverUs[del:]), p50(res.callUs[call:]),
			rate{res.sustained.ops - sus.ops, res.sustained.elapsed - sus.elapsed}.perSecond(),
			rate{res.clicks.ops - clk.ops, res.clicks.elapsed - clk.elapsed}.perSecond(), p50(res.cpuPerOp[cpu:]), p50(res.heapMB[heap:]))
	}
	out := output{Correct: correct, Attempted: res.attempted, Failed: res.failed}
	all := res.figures()
	// Every figure goes to stderr, the wall-clock ones too; a traced
	// run's against an untraced run's give the tracing overhead.
	if line, err := json.Marshal(all); err == nil {
		fmt.Fprintf(os.Stderr, "reefperf: figures: %s\n", line)
	}
	if tr != nil {
		out.Metrics = tr.perLayer(res, base)
	} else {
		out.Metrics = map[string]metric{}
		for _, name := range endToEnd {
			out.Metrics[name] = all[name]
		}
	}
	return out, nil
}

// monitor scrapes a node's /v1/metrics every scrapeEvery, as an
// operator's monitoring would.
type monitor struct {
	stopc chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

const scrapeEvery = 250 * time.Millisecond

func startMonitor(nodes ...*node) *monitor {
	m := &monitor{stopc: make(chan struct{})}
	hc := &http.Client{Timeout: 10 * time.Second}
	if tr != nil {
		hc = tracedHTTPClient()
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				hc.CloseIdleConnections()
				return
			case <-t.C:
			}
			for _, n := range nodes {
				size, d, err := scrape(context.Background(), hc, n.url)
				if err == nil && tr != nil {
					tr.scrape(size, d)
					tr.sample(n.dep, n.mgr)
				}
			}
		}
	}()
	return m
}

func (m *monitor) stop() {
	m.once.Do(func() { close(m.stopc) })
	m.wg.Wait()
}

func drain(resp *http.Response) (int, error) {
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: status %d", resp.Request.URL.Path, resp.StatusCode)
	}
	return int(n), err
}
