package telemetry

import (
	"math"
	"sync"

	"prospector/internal/obs"
)

// Collector maintains fixed-capacity windowed time series over a
// registry's metrics. Each registered counter becomes three series
// (cumulative value, per-tick delta, delta/dt rate), each gauge one,
// and each histogram four (observations per tick plus windowed
// p50/p95/p99 derived from per-tick bucket deltas).
//
// Sampling is split in two so the hot half stays allocation-free:
// Sync discovers series the registry has grown since the last call
// (allocating probes and rings for them — cold, amortized over the
// run), and Tick samples every known probe without allocating. Sample
// composes both and is the normal entry point; in steady state, when
// no new series appeared, it performs zero allocations end to end.
type Collector struct {
	mu     sync.Mutex
	reg    *obs.Registry
	window int

	ticks   int64
	lastNow float64
	times   *Ring

	probes []*probe
	series map[string]*Ring // every derived series, by full name
	known  map[string]bool  // metric names already probed
	// Registry sizes at the last Sync: when unchanged, Sync is a
	// three-int comparison and no iteration happens at all.
	nc, ng, nh int
}

// probeKind discriminates what a probe samples.
type probeKind uint8

const (
	counterProbe probeKind = iota
	gaugeProbe
	histProbe
)

// probe is one metric's sampling state: the pre-resolved handle, the
// previous observation (for deltas), and the derived rings.
type probe struct {
	kind probeKind
	c    *obs.Counter
	g    *obs.Gauge
	h    *obs.Histogram

	prev float64 // counter: previous cumulative value

	// Histogram state: immutable bounds, previous cumulative bucket
	// counts, and scratch for the current read and the per-tick deltas.
	bounds  []float64
	prevCts []int64
	curCts  []int64
	deltas  []int64
	prevSum float64

	value *Ring // counter cumulative / gauge value
	delta *Ring // counter per-tick delta / histogram observations per tick
	rate  *Ring // counter delta/dt

	q50, q95, q99 *Ring // histogram windowed quantiles
}

// NewCollector attaches a collector with the given window capacity
// (ticks retained per series) to reg. The registry may be empty:
// series that appear later (lp.warm_hit_rate shows up on the first
// solve) are picked up by the next Sample/Sync.
func NewCollector(reg *obs.Registry, window int) *Collector {
	if window < 1 {
		window = 1
	}
	return &Collector{
		reg:    reg,
		window: window,
		times:  newRing(window),
		series: map[string]*Ring{},
		known:  map[string]bool{},
	}
}

// Window returns the per-series window capacity in ticks.
func (c *Collector) Window() int {
	if c == nil {
		return 0
	}
	return c.window
}

// Ticks returns how many times the collector has sampled.
func (c *Collector) Ticks() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Sync mirrors registry growth into the probe set: any metric
// registered since the last Sync gains its probe and rings. Existing
// probes are untouched, so Sync never disturbs in-flight windows.
// No-op (after a three-int size check) when the registry is unchanged.
func (c *Collector) Sync() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	nc, ng, nh := c.reg.Sizes()
	if nc == c.nc && ng == c.ng && nh == c.nh {
		return
	}
	c.nc, c.ng, c.nh = nc, ng, nh
	c.reg.EachCounter(func(name string, h *obs.Counter) {
		if c.known[name] {
			return
		}
		c.known[name] = true
		p := &probe{kind: counterProbe, c: h,
			value: newRing(c.window), delta: newRing(c.window), rate: newRing(c.window)}
		c.probes = append(c.probes, p)
		c.series[name] = p.value
		c.series[name+".delta"] = p.delta
		c.series[name+".rate"] = p.rate
	})
	c.reg.EachGauge(func(name string, g *obs.Gauge) {
		if c.known[name] {
			return
		}
		c.known[name] = true
		p := &probe{kind: gaugeProbe, g: g, value: newRing(c.window)}
		c.probes = append(c.probes, p)
		c.series[name] = p.value
	})
	c.reg.EachHistogram(func(name string, h *obs.Histogram) {
		if c.known[name] {
			return
		}
		c.known[name] = true
		nb := h.NumBuckets()
		p := &probe{kind: histProbe, h: h,
			bounds:  h.Bounds(),
			prevCts: make([]int64, nb), curCts: make([]int64, nb), deltas: make([]int64, nb),
			delta: newRing(c.window),
			q50:   newRing(c.window), q95: newRing(c.window), q99: newRing(c.window)}
		c.probes = append(c.probes, p)
		c.series[name+".delta"] = p.delta
		c.series[name+".p50"] = p.q50
		c.series[name+".p95"] = p.q95
		c.series[name+".p99"] = p.q99
	})
}

// Tick samples every known probe at time now, pushing one value per
// derived series. The clock is caller-supplied, never read: sim/exec
// drivers pass the epoch index (deterministic series), the -listen
// interval ticker passes wall seconds. dt <= 0 (first tick, clock
// reset, or interleaved clock domains) yields a rate of 0 rather than
// a division blow-up.
func (c *Collector) Tick(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dt := 0.0
	if c.ticks > 0 {
		dt = now - c.lastNow
	}
	for _, p := range c.probes {
		p.sample(dt)
	}
	c.times.Push(now)
	c.lastNow = now
	c.ticks++
}

// Sample is Sync followed by Tick: the normal per-epoch (or
// per-interval) entry point.
func (c *Collector) Sample(now float64) {
	if c == nil {
		return
	}
	c.Sync()
	c.Tick(now)
}

// sample pushes one tick's worth of derived values for this probe.
func (p *probe) sample(dt float64) {
	switch p.kind {
	case counterProbe:
		v := float64(p.c.Value())
		d := v - p.prev
		p.prev = v
		rate := 0.0
		if dt > 0 {
			rate = d / dt
		}
		p.value.Push(v)
		p.delta.Push(d)
		p.rate.Push(rate)
	case gaugeProbe:
		v := p.g.Value()
		// A NaN gauge samples as 0: the windowed series feed JSON
		// (/debug/telemetry) and rule evaluation, and NaN is valid in
		// neither. Histograms already reject NaN at Observe time.
		if math.IsNaN(v) {
			v = 0
		}
		p.value.Push(v)
	case histProbe:
		p.h.ReadBucketCounts(p.curCts)
		n := int64(0)
		for i := range p.curCts {
			p.deltas[i] = p.curCts[i] - p.prevCts[i]
			n += p.deltas[i]
		}
		sum := p.h.Sum()
		dsum := sum - p.prevSum
		p.delta.Push(float64(n))
		p.q50.Push(obs.BucketQuantile(p.bounds, p.deltas, n, dsum, 0.50))
		p.q95.Push(obs.BucketQuantile(p.bounds, p.deltas, n, dsum, 0.95))
		p.q99.Push(obs.BucketQuantile(p.bounds, p.deltas, n, dsum, 0.99))
		copy(p.prevCts, p.curCts)
		p.prevSum = sum
	}
}

// Latest returns the newest value of the named windowed series
// (counter, counter.delta, counter.rate, gauge, hist.delta,
// hist.p50/.p95/.p99) and whether the series exists with at least one
// sample.
func (c *Collector) Latest(name string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.series[name]
	if r == nil {
		return 0, false
	}
	return r.Last()
}

// Export is the JSON document served at /debug/telemetry: the window
// shape plus every windowed series, oldest value first. Values at the
// same index across series belong to the same tick.
type Export struct {
	Window int                  `json:"window"`
	Ticks  int64                `json:"ticks"`
	Times  []float64            `json:"times"`
	Series map[string][]float64 `json:"series"`
}

// Export deep-copies the current windows. Series with no samples yet
// export as empty arrays, so consumers see the full series catalog.
func (c *Collector) Export() *Export {
	e := &Export{Series: map[string][]float64{}}
	if c == nil {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.Window = c.window
	e.Ticks = c.ticks
	e.Times = c.times.AppendTo(make([]float64, 0, c.times.Len()))
	for name, r := range c.series {
		e.Series[name] = r.AppendTo(make([]float64, 0, r.Len()))
	}
	return e
}
