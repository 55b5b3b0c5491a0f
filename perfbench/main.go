// Command perfbench is the repository's benchmark. It runs one workload
// (adhoc-topk, hot-update or rules-fig2) against a freshly loaded database
// from a single process, checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
//	go run . --workload hot-update --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and the meaning of each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	setupRuns = 3               // set-ups per untraced run; setup_s is their median
	warmup    = 1 * time.Second // load before timing starts: caches fill, connections settle
	window    = 250 * time.Millisecond
)

// metric is one named result value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
	info  bool // printed, but not part of the result object
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: adhoc-topk, hot-update or rules-fig2")
	seed := flag.Int64("seed", 1, "seed for the data and the traffic")
	seconds := flag.Int("seconds", 20, "seconds of timed load")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	metrics := map[string]any{}
	for _, m := range res.metrics {
		line := fmt.Sprintf("%-36s %14.4f %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Println(line)
		if !m.info {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	for _, f := range res.checkFails {
		fmt.Println("CHECK FAILED:", f)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(res.checkFails) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// result is what one run reports.
type result struct {
	metrics           []metric
	checkFails        []string
	attempted, failed int64
}

// sample is one client operation. Times are ns since the run's base.
type sample struct {
	start, end int64
	commit     int64 // explicit COMMIT request span (write transactions)
	window     int32 // window index the operation ran in; -1 if it straddled two
	kind       opKind
	ok         bool
}

// connLoad is what one connection's goroutine recorded.
type connLoad struct {
	samples   []sample
	stmts     int64
	committed int64
	fails     [numClasses]int64
	wrong     []string
}

// drive runs every client in a closed loop until the deadline. win holds
// the current window index; each sample records it.
func drive(clients []client, base, until time.Time, win *atomic.Int32) []*connLoad {
	loads := make([]*connLoad, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		l := &connLoad{samples: make([]sample, 0, 1<<14)}
		loads[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				ws := win.Load()
				t0 := time.Now()
				res := c.do()
				t1 := time.Now()
				if win.Load() != ws {
					ws = -1
				}
				l.samples = append(l.samples, sample{
					start: t0.Sub(base).Nanoseconds(), end: t1.Sub(base).Nanoseconds(),
					commit: res.commit, window: ws, kind: res.kind, ok: res.err == nil && res.wrong == "",
				})
				l.stmts += int64(res.stmts)
				switch {
				case res.err != nil:
					l.fails[classify(res.err)]++
				case res.wrong != "":
					l.fails[classOther]++
					if len(l.wrong) < 5 {
						l.wrong = append(l.wrong, res.wrong)
					}
				case res.kind == kindWrite:
					l.committed++
				}
			}
		}()
	}
	wg.Wait()
	return loads
}

// timedPhase is what the timed load measured.
type timedPhase struct {
	loads   []*connLoad
	mallocs uint64
	cpu     time.Duration
	// Traced runs only: wall and process CPU time of the untraced (0)
	// and traced (1) windows.
	modeNs, modeCPU [2]int64
}

// tally sums the per-connection counts of every load, warm-up included.
type tally struct {
	totals
	attempted, failed int64
	fails             [numClasses]int64
	wrong             []string
	sampleBytes       uint64
}

func tallyLoads(groups ...[]*connLoad) tally {
	var t tally
	for _, g := range groups {
		for _, l := range g {
			t.attempted += int64(len(l.samples))
			for c, n := range l.fails {
				t.fails[c] += n
				t.failed += n
			}
			t.stmts += l.stmts
			t.committed += l.committed
			t.wrong = append(t.wrong, l.wrong...)
			t.sampleBytes += uint64(cap(l.samples)) * uint64(unsafe.Sizeof(sample{}))
		}
	}
	return t
}

func runWorkload(w *workloadDef, seed int64, dur time.Duration, traced bool) (*result, error) {
	base := time.Now()
	nSetups := setupRuns
	if traced {
		nSetups = 1 // set-up time is an end-to-end metric only
	}
	var setups setupTimes
	var in *instance
	for i := 0; i < nSetups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0, cpu0 := time.Now(), cpuTime()
		var err error
		if in, err = setUp(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.cpu = append(setups.cpu, (cpuTime() - cpu0).Seconds())
		setups.wall = append(setups.wall, time.Since(t0).Seconds())
	}
	defer in.close() //nolint:errcheck // the results are complete by then

	clients := make([]client, w.conns)
	for i := range clients {
		c, err := w.dial(in, i, rand.New(rand.NewSource(seed*1_000_003+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("connect %d: %w", i, err)
		}
		clients[i] = c
	}

	var win atomic.Int32
	warm := drive(clients, base, time.Now().Add(warmup), &win)

	var tr *tracer
	if traced {
		tr = newTracer(in, base)
	}
	before := snapshot(in)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	until := time.Now().Add(dur)
	ph := &timedPhase{}
	if traced {
		ph.loads = driveWindows(clients, base, until, &win, in, tr, ph)
	} else {
		ph.loads = drive(clients, base, until, &win)
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	for _, c := range clients {
		c.close()
	}
	after := snapshot(in)
	t0 := time.Now()
	in.db.Flush(10 * time.Second)
	drain := time.Since(t0)
	if err := in.stopServer(); err != nil {
		return nil, err
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	tl := tallyLoads(warm, ph.loads)
	res := &result{attempted: tl.attempted, failed: tl.failed, checkFails: tl.wrong}
	if n := tl.fails[classDeadlock] + tl.fails[classOther]; n != 0 {
		res.checkFails = append(res.checkFails, fmt.Sprintf("%d deadlocks and %d other failures, want none", tl.fails[classDeadlock], tl.fails[classOther]))
	}
	res.checkFails = append(res.checkFails, w.check(in, &tl.totals)...)

	if traced {
		res.metrics = layerMetrics(w, in, tr, ph, before, after, drain)
		writeTrace(w.name, ph.loads, tr)
	} else {
		heap := live.HeapAlloc - min(live.HeapAlloc, tl.sampleBytes)
		res.metrics = endToEnd(w, ph, heap, setups, tl)
	}
	res.metrics = append(res.metrics, failureLines(tl.fails, tl.attempted)...)
	return res, nil
}

// driveWindows runs the load in alternating untraced and traced windows
// so that drift over the run (a warming plan cache, growing LATs) hits
// both modes alike. Even windows run the monitor's own hooks, odd ones
// the timing decorator.
func driveWindows(clients []client, base, until time.Time, win *atomic.Int32, in *instance, tr *tracer, ph *timedPhase) []*connLoad {
	var loads []*connLoad
	done := make(chan struct{})
	go func() {
		defer close(done)
		loads = drive(clients, base, until, win)
	}()
	w := win.Load()
	last, lastCPU := time.Now(), cpuTime()
	for {
		time.Sleep(time.Until(minTime(last.Add(window), until)))
		now, cpu := time.Now(), cpuTime()
		ph.modeNs[w%2] += now.Sub(last).Nanoseconds()
		ph.modeCPU[w%2] += (cpu - lastCPU).Nanoseconds()
		last, lastCPU = now, cpu
		if !now.Before(until) {
			break
		}
		w++
		if w%2 == 1 {
			in.db.Engine().SetHooks(tr)
		} else {
			in.db.Monitor().Resume()
		}
		win.Store(w)
	}
	<-done
	in.db.Monitor().Resume()
	return loads
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latenciesNs returns the latencies in ns of completed operations of the
// given kinds.
func latenciesNs(loads []*connLoad, kinds ...opKind) []int64 {
	var out []int64
	for _, l := range loads {
		for _, s := range l.samples {
			for _, k := range kinds {
				if s.ok && s.kind == k {
					out = append(out, s.end-s.start)
				}
			}
		}
	}
	return out
}

// tailNote states the sample count and the highest percentile with at
// least ten samples beyond it.
func tailNote(us []float64) string {
	tail := tailPercentile(len(us))
	return fmt.Sprintf("n=%d; highest percentile with >=10 samples beyond: p%g = %.1f us", len(us), tail, percentile(us, tail))
}

// throughput counts the completed operations and the time from the first
// operation sent to the last reply received.
func throughput(loads []*connLoad) (int64, time.Duration) {
	var ok int64
	first, last := int64(-1), int64(0)
	for _, l := range loads {
		for _, s := range l.samples {
			if s.ok {
				ok++
			}
			if first < 0 || s.start < first {
				first = s.start
			}
			last = max(last, s.end)
		}
	}
	return ok, time.Duration(last - first)
}

// endToEnd reports what a user of the system sees. Metrics that vary with
// the host's CPU steal more than any bound could absorb (wall-clock
// throughput, p99 latencies) are printed but kept out of the result object.
func endToEnd(w *workloadDef, ph *timedPhase, heapBytes uint64, setups setupTimes, tl tally) []metric {
	okOps, elapsed := throughput(ph.loads)
	var timedOps int64
	for _, l := range ph.loads {
		timedOps += int64(len(l.samples))
	}
	reads := sortedUs(latenciesNs(ph.loads, kindRead))
	ops := sortedUs(latenciesNs(ph.loads, kindRead, kindWrite))
	ms := []metric{
		{name: "throughput_ops_s", value: float64(okOps) / elapsed.Seconds(), unit: "1/s", info: true,
			note: fmt.Sprintf("%d ops by %d closed-loop connections in %.2f s", okOps, w.conns, elapsed.Seconds())},
		{name: "read_p50_us", value: percentile(reads, 50), unit: "us", note: fmt.Sprintf("n=%d", len(reads))},
		{name: "read_p90_us", value: percentile(reads, 90), unit: "us", info: true},
		{name: "read_p99_us", value: percentile(reads, 99), unit: "us", info: true, note: tailNote(reads)},
	}
	if writes := sortedUs(latenciesNs(ph.loads, kindWrite)); len(writes) > 0 {
		ms = append(ms,
			metric{name: "write_p50_us", value: percentile(writes, 50), unit: "us", info: true, note: "BEGIN sent to COMMIT reply"},
			metric{name: "write_p99_us", value: percentile(writes, 99), unit: "us", info: true, note: tailNote(writes)},
		)
	}
	cpuNote := "process CPU time (user+sys) per operation: engine and monitor"
	allocNote := "engine and monitor"
	if w.wire {
		cpuNote += ", server and the in-process wire client"
		allocNote += ", server and the in-process wire client"
	}
	errRatio := float64(tl.failed) / float64(tl.attempted)
	return append(ms,
		metric{name: "op_p75_us", value: percentile(ops, 75), unit: "us", note: "every operation, reads and whole write transactions"},
		metric{name: "op_p90_us", value: percentile(ops, 90), unit: "us", info: true},
		metric{name: "op_p99_us", value: percentile(ops, 99), unit: "us", info: true, note: tailNote(ops)},
		metric{name: "cpu_us_per_op", value: float64(ph.cpu.Microseconds()) / float64(timedOps), unit: "us", note: cpuNote},
		metric{name: "ok_ratio", value: 1 - errRatio, unit: "ratio", note: fmt.Sprintf("%d of %d attempted operations failed", tl.failed, tl.attempted)},
		metric{name: "error_ratio", value: errRatio, unit: "ratio", info: true, note: "a failure counts as missing every latency limit"},
		metric{name: "allocs_per_op", value: float64(ph.mallocs) / float64(timedOps), unit: "count", note: allocNote},
		metric{name: "heap_live_mib", value: float64(heapBytes) / (1 << 20), unit: "MiB", note: "HeapAlloc after a forced GC at the end of the load, less the benchmark's latency samples"},
		metric{name: "setup_s", value: median(setups.cpu), unit: "s",
			note: fmt.Sprintf("process CPU time, median of %d set-ups (open, load, install rules): %s", len(setups.cpu), fmtSecs(setups.cpu))},
		metric{name: "setup_wall_s", value: median(setups.wall), unit: "s", info: true,
			note: fmt.Sprintf("wall-clock time of the same set-ups: %s", fmtSecs(setups.wall))},
	)
}

// setupTimes holds, per set-up, the process CPU time and the wall-clock
// time it took. setup_s reports the CPU time: like cpu_us_per_op, it
// leaves out the time the host's hypervisor takes from the guest.
type setupTimes struct {
	cpu, wall []float64
}

func fmtSecs(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.3f", s)
}
