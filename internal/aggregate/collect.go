package aggregate

import (
	"fmt"
	"math"

	"prospector/internal/energy"
	"prospector/internal/exec"
	"prospector/internal/network"
)

// Kind selects the aggregate computed in-network.
type Kind int

// Supported aggregates. The first five use exact TAG partial-state
// records (constant size); Median and Quantile use q-digest summaries
// (bounded size, bounded rank error).
const (
	Max Kind = iota
	Min
	Sum
	Count
	Avg
	Median
)

func (k Kind) String() string {
	switch k {
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Median:
		return "MEDIAN"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Options tunes approximate aggregates.
type Options struct {
	// Quantile overrides Median's phi (0.5) when in (0, 1).
	Quantile float64
	// Compression is the q-digest k; 0 means 8.
	Compression int
	// DomainBits is the q-digest domain size in bits; 0 means 10
	// (readings quantized into 1024 buckets between the observed min
	// and max, which the collection discovers in the same pass the way
	// TAG piggybacks auxiliary state).
	DomainBits uint
}

// Result reports one in-network aggregation.
type Result struct {
	// Value is the aggregate (for Avg, the mean; for Median/Quantile,
	// the estimated value after de-quantization).
	Value float64
	// Ledger accounts the collection's energy.
	Ledger energy.Ledger
	// DigestSize is the root digest's entry count (quantiles only).
	DigestSize int
	// RankErrorBound is the q-digest guarantee in ranks (quantiles only).
	RankErrorBound int64
}

// Collect computes the aggregate over one epoch of readings with a
// TAG-style single pass: postorder, one message per node, partial
// states merged on the way up.
func Collect(env exec.Env, kind Kind, values []float64, opts Options) (*Result, error) {
	if env.Net == nil || env.Costs == nil {
		return nil, fmt.Errorf("aggregate: environment needs a network and costs")
	}
	if len(values) != env.Net.Size() {
		return nil, fmt.Errorf("aggregate: %d readings for %d nodes", len(values), env.Net.Size())
	}
	switch kind {
	case Max, Min, Sum, Count, Avg:
		return collectExact(env, kind, values)
	case Median:
		return collectQuantile(env, values, opts)
	}
	return nil, fmt.Errorf("aggregate: unknown kind %v", kind)
}

// exactState is the TAG partial-state record for the closed-form
// aggregates: 24 bytes on the wire (sum, count, extremum).
type exactState struct {
	sum      float64
	count    int64
	extremum float64
}

const exactStateBytes = 24

func collectExact(env exec.Env, kind Kind, values []float64) (*Result, error) {
	res := &Result{}
	net := env.Net
	states := make([]exactState, net.Size())
	net.PostorderWalk(func(v network.NodeID) {
		st := exactState{sum: values[v], count: 1, extremum: values[v]}
		for _, c := range net.Children(v) {
			cs := states[c]
			st.sum += cs.sum
			st.count += cs.count
			switch kind {
			case Min:
				st.extremum = math.Min(st.extremum, cs.extremum)
			default:
				st.extremum = math.Max(st.extremum, cs.extremum)
			}
		}
		states[v] = st
		if v != network.Root {
			cost := env.Costs.Msg[v] + env.Costs.Model().ByteCost(exactStateBytes)
			res.Ledger.Collection += cost
			res.Ledger.Messages++
		}
	})
	root := states[network.Root]
	switch kind {
	case Max, Min:
		res.Value = root.extremum
	case Sum:
		res.Value = root.sum
	case Count:
		res.Value = float64(root.count)
	case Avg:
		res.Value = root.sum / float64(root.count)
	}
	return res, nil
}

func collectQuantile(env exec.Env, values []float64, opts Options) (*Result, error) {
	phi := 0.5
	if opts.Quantile > 0 && opts.Quantile < 1 {
		phi = opts.Quantile
	}
	k := opts.Compression
	if k == 0 {
		k = 8
	}
	bits := opts.DomainBits
	if bits == 0 {
		bits = 10
	}
	// Quantization domain from the epoch's range (TAG-style auxiliary
	// min/max travel with the digest at negligible extra cost, charged
	// below as part of the state record).
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	buckets := uint64(1) << bits
	quantize := func(x float64) uint64 {
		b := uint64(float64(buckets-1) * (x - lo) / span)
		if b >= buckets {
			b = buckets - 1
		}
		return b
	}
	res := &Result{}
	net := env.Net
	digests := make([]*QDigest, net.Size())
	var walkErr error
	net.PostorderWalk(func(v network.NodeID) {
		if walkErr != nil {
			return
		}
		d, err := NewQDigest(bits, k)
		if err != nil {
			walkErr = err
			return
		}
		if err := d.Add(quantize(values[v])); err != nil {
			walkErr = err
			return
		}
		for _, c := range net.Children(v) {
			if err := d.Merge(digests[c]); err != nil {
				walkErr = err
				return
			}
		}
		digests[v] = d
		if v != network.Root {
			bytes := d.Size()*EntryBytes + 16 // entries + min/max floats
			cost := env.Costs.Msg[v] + env.Costs.Model().ByteCost(bytes)
			res.Ledger.Collection += cost
			res.Ledger.Messages++
			res.Ledger.Values += d.Size()
		}
	})
	if walkErr != nil {
		return nil, walkErr
	}
	root := digests[network.Root]
	bucket, err := root.Quantile(phi)
	if err != nil {
		return nil, err
	}
	res.Value = lo + (float64(bucket)+0.5)*span/float64(buckets)
	res.DigestSize = root.Size()
	res.RankErrorBound = root.ErrorBound()
	return res, nil
}
