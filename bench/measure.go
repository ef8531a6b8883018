package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// opStat is what one timed operation reports back to the loop.
type opStat struct {
	// lat is the op's latency: only the calls into the program, never
	// the bench's own input generation or output checks.
	lat time.Duration
	// energy (mJ per epoch) and acc (share of the true top k returned)
	// are the op's quality; see workload.quality.
	energy, acc float64
}

// clientLog is one client's record of its ops. It takes constant
// memory however many ops the client makes, so heap_peak_mb measures
// the program, not the bench's bookkeeping.
type clientLog struct {
	lat    latencyHist
	work   progress
	ops    int
	failed int
	// energy and acc sum the quality of the client's first quality ops.
	energy, acc float64
	qualityOps  int
	err         error
}

// closedLoop runs op on the given number of client goroutines, each
// sending its next op only when the previous one returned, until dur
// has passed and every client has completed at least minOps. An op
// error, which includes a failed output check, counts the op as
// failed; the loop goes on. Client 0 calls atQuality once its first
// quality ops are done.
func closedLoop(clients int, dur time.Duration, minOps, quality int,
	op func(c, i int) (opStat, error), atQuality func()) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		lg := &clientLog{work: progress{width: dur.Seconds() / throughputWindows}}
		logs[c] = lg
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < minOps || time.Since(start) < dur; i++ {
				st, err := op(c, i)
				lg.lat.add(float64(st.lat.Nanoseconds()) / 1e6)
				lg.work.done(time.Since(start).Seconds())
				lg.ops++
				if err != nil {
					lg.failed++
					if lg.err == nil {
						lg.err = err
					}
				}
				if i < quality {
					lg.energy += st.energy
					lg.acc += st.acc
					lg.qualityOps++
				}
				if c == 0 && i == quality-1 {
					atQuality()
				}
			}
		}(c)
	}
	wg.Wait()
	return logs, time.Since(start)
}

// latencyHist counts latencies in log-spaced buckets 0.4% wide from
// 100 ns up; percentiles read from it are off by at most half that.
type latencyHist struct {
	counts []int64
	n      int64
}

const (
	histMinMS  = 1e-4
	histGrowth = 1.004
)

func (h *latencyHist) add(ms float64) {
	i := 0
	if ms > histMinMS {
		i = int(math.Log(ms/histMinMS)/math.Log(histGrowth)) + 1
	}
	for len(h.counts) <= i {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	for len(h.counts) < len(o.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ms, placing the covering bucket's
// observations evenly across its width.
func (h *latencyHist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		if i == 0 {
			return histMinMS
		}
		lo := histMinMS * math.Pow(histGrowth, float64(i-1))
		return lo + lo*(histGrowth-1)*(rank-cum)/float64(c)
	}
	return math.NaN()
}

// above counts the observations in buckets wholly above ms.
func (h *latencyHist) above(ms float64) int64 {
	var n int64
	for i := len(h.counts) - 1; i > 0 && histMinMS*math.Pow(histGrowth, float64(i-1)) > ms; i-- {
		n += h.counts[i]
	}
	return n
}

// throughputWindows is how many equal windows of the measured time
// throughput_ops_s is taken over.
const throughputWindows = 20

// progress is one client's completed work per fixed-width window of
// the run. Each op counts as spread evenly over the time since the
// client's previous op completed, so a window's work is fractional and
// a 50 ms op does not make 1 s windows lumpy.
type progress struct {
	width float64 // seconds
	work  []float64
	last  float64
}

func (p *progress) done(t float64) {
	from, span := p.last, t-p.last
	p.last = t
	for w := int(from / p.width); float64(w)*p.width < t; w++ {
		for len(p.work) <= w {
			p.work = append(p.work, 0)
		}
		lo := math.Max(from, float64(w)*p.width)
		hi := math.Min(t, float64(w+1)*p.width)
		p.work[w] += (hi - lo) / span
	}
}

// sustainedThroughput is the median, over the windows that lie wholly
// inside the measured time, of the ops all clients completed in the
// window divided by its width. The median keeps a host stall (a noisy
// neighbour on a shared core) or one rare slow op from deciding the
// run's number; a slowdown that lasts most of the run still shows.
func sustainedThroughput(logs []*clientLog, elapsed float64) float64 {
	width := logs[0].work.width
	var work []float64
	for _, lg := range logs {
		for w, x := range lg.work.work {
			for len(work) <= w {
				work = append(work, 0)
			}
			work[w] += x
		}
	}
	var rates []float64
	for w, x := range work {
		if float64(w+1)*width <= elapsed {
			rates = append(rates, x/width)
		}
	}
	if len(rates) == 0 {
		ops := 0
		for _, lg := range logs {
			ops += lg.ops
		}
		return float64(ops) / elapsed
	}
	return quantile(rates, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// keptHeapMB runs a full garbage collection and returns the live heap
// it found, in MB: what the program keeps at this point.
//
// A peak sampled between calls is not steady enough to compare. The
// live heap is only known at GC cycles, and whether a cycle lands
// inside a transient depends on allocation timing: one standing_sim
// set-up read 4.4, 6.9 or 11.1 MB, and a window_replan run caught its
// 5 MB model rebuild in one of 180 cycles, or in none. Live plus
// unswept bytes, sampled on a timer, moved 15% between runs of one
// seed. Transient allocation shows in runtime.alloc_bytes_per_op.
func keptHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeCounters reads the cumulative allocation and GC-cycle counts.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
