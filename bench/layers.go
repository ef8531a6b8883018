package main

import (
	"strings"

	"prospector/internal/obs"
)

// regDelta is how a registry changed between two snapshots.
type regDelta struct{ from, to *obs.Snapshot }

func (d regDelta) count(name string) float64 {
	return float64(d.to.Counters[name] - d.from.Counters[name])
}

// countMatching sums the deltas of every counter named
// <prefix>*<suffix>.
func (d regDelta) countMatching(prefix, suffix string) float64 {
	total := 0.0
	for name := range d.to.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += d.count(name)
		}
	}
	return total
}

func (d regDelta) hist(name string) obs.HistogramSnapshot {
	a, b := d.from.Histograms[name], d.to.Histograms[name]
	h := obs.HistogramSnapshot{Bounds: b.Bounds, Count: b.Count - a.Count, Sum: b.Sum - a.Sum,
		Counts: make([]int64, len(b.Counts))}
	for i := range b.Counts {
		h.Counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			h.Counts[i] -= a.Counts[i]
		}
	}
	return h
}

func histMean(h obs.HistogramSnapshot) float64 { return ratio(h.Sum, float64(h.Count)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInputs is everything the per-layer metrics derive from.
type layerInputs struct {
	a *attribution
	// loop is the registry's change over the measured loop; quality its
	// change over the first quality ops, where counts repeat per seed.
	loop, quality regDelta
	ops           float64
	allocBytes    float64
	gcCycles      float64
	throughput    float64
}

// layerMetrics derives the per-layer metrics of a traced run. Layer
// times come from the bench's spans (per traced op) and from the
// program's own histograms (per op of the whole loop); a layer a
// workload does not reach reads 0.
func layerMetrics(in layerInputs) []metric {
	a, loop := in.a, in.loop
	perOp := func(span string) float64 { return ratio(sum(a.durs[span]), float64(a.ops)) }
	opMS := ratio(a.opMS, float64(a.ops))

	lpSolve := loop.hist("lp.solve_seconds")
	lpPerOp := ratio(lpSolve.Sum*1e3, in.ops)
	servePlan := loop.hist("serve.plan_ms")
	wait := loop.hist("serve.batch_wait_ms")
	requests := loop.count("serve.requests")

	// On the epoch workloads the bench times each Plan call itself; on
	// the serve workloads the calls happen inside the service, which
	// times them in serve.plan_ms.
	planMS, planP95, planPerOp := 0.0, 0.0, 0.0
	if d := a.durs["core.plan"]; len(d) > 0 {
		planMS, planP95, planPerOp = mean(d), quantile(d, 0.95), perOp("core.plan")
	} else if servePlan.Count > 0 {
		planMS, planP95, planPerOp = histMean(servePlan), servePlan.Quantile(0.95), ratio(servePlan.Sum, in.ops)
	}
	plans := loop.countMatching("core.", ".plans")
	httpMS := 0.0
	if requests > 0 {
		httpMS = opMS - histMean(wait) - ratio(servePlan.Sum, requests)
	}
	warm, cold, fallbacks := loop.count("lp.warm_resolves"), loop.count("lp.cold_solves"), loop.count("lp.warm_fallbacks")

	shares := []metric{
		{name: "share.sample", value: perOp("sample.add")},
		{name: "share.core", value: planPerOp - lpPerOp},
		{name: "share.lp", value: lpPerOp},
		{name: "share.sim", value: perOp("sim.install") + perOp("sim.run")},
		{name: "share.exec", value: perOp("exec.run")},
		{name: "share.serve", value: ratio(wait.Sum, requests)},
		{name: "share.http", value: httpMS},
	}
	rest := 1.0
	for i := range shares {
		shares[i].value = ratio(shares[i].value, opMS)
		shares[i].unit = "ratio"
		rest -= shares[i].value
	}
	if a.ops == 0 {
		rest = 0
	}
	shares = append(shares, metric{name: "share.unattributed", value: rest, unit: "ratio"})

	ms := []metric{
		{"network.build_ms", quantileOr0(a.setup["network.build"], 0.5), "ms"},
		{"sample.add_ms", mean(a.durs["sample.add"]), "ms"},
		{"core.snapshot_ms", quantileOr0(a.setup["core.snapshot"], 0.5), "ms"},
		{"core.plan_ms", planMS, "ms"},
		{"core.plan_p95_ms", planP95, "ms"},
		{"core.nonlp_ms", planMS - ratio(lpSolve.Sum*1e3, plans), "ms"},
		{"lp.solve_ms", histMean(lpSolve) * 1e3, "ms"},
		{"lp.pivots_per_solve", ratio(loop.count("lp.pivots"), loop.count("lp.solves")), "count"},
		{"lp.cold_solves", in.quality.count("lp.cold_solves"), "count"},
		{"lp.iteration_limits", in.quality.count("lp.status.iteration-limit"), "count"},
		{"lp.presolve_runs", in.quality.count("lp.presolve.runs"), "count"},
		{"lp.warm_hit_rate", ratio(warm, warm+cold+fallbacks), "ratio"},
		{"sim.install_ms", mean(a.durs["sim.install"]), "ms"},
		{"sim.install_mj", ratio(a.opNums["install_mj"], float64(a.ops)), "mJ"},
		{"sim.run_ms", mean(a.durs["sim.run"]), "ms"},
		{"sim.run_p95_ms", quantileOr0(a.durs["sim.run"], 0.95), "ms"},
		{"sim.retransmissions_per_epoch", ratio(loop.count("sim.retransmissions"), in.ops), "count"},
		{"sim.deferrals_per_epoch", ratio(loop.count("sim.deferrals"), in.ops), "count"},
		{"exec.run_ms", mean(a.durs["exec.run"]), "ms"},
		{"exec.messages_per_epoch", ratio(loop.count("exec.messages"), in.ops), "count"},
		{"serve.queue_wait_ms", histMean(wait), "ms"},
		{"serve.queue_wait_p95_ms", wait.Quantile(0.95), "ms"},
		{"serve.plan_ms", histMean(servePlan), "ms"},
		{"serve.plan_p95_ms", servePlan.Quantile(0.95), "ms"},
		{"serve.http_ms", httpMS, "ms"},
		{"serve.batch_size", histMean(loop.hist("serve.batch_size")), "count"},
		{"serve.coalesced_ratio", ratio(loop.count("serve.coalesced"), requests), "ratio"},
		{"serve.shed_ratio", ratio(loop.count("serve.shed_total"), requests), "ratio"},
		{"runtime.alloc_bytes_per_op", ratio(in.allocBytes, in.ops), "B"},
		{"runtime.gc_cycles_per_kop", ratio(in.gcCycles*1e3, in.ops), "count"},
	}
	ms = append(ms, shares...)
	return append(ms, metric{"trace.throughput_ops_s", in.throughput, "ops/s"})
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
