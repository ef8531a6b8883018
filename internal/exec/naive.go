package exec

import (
	"fmt"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
)

// NaiveBatch generalizes the paper's two naive exact algorithms into
// one family: each request asks a child for its next `batch` values at
// once, and every request and every reply is a separate unicast.
//
// batch=1 is NAIVE-1 of Section 2, a pipelined distributed heap in
// which every node hands its parent one value per request: minimum
// values moved, at the price of a prohibitive per-message overhead.
// batch>=k approaches NAIVE-k's single-pass behaviour (minimum
// messages, wasted values). Sweeping batch quantifies the
// message-count/value-count tradeoff Section 2 describes.
//
// It returns the exact top k along with the energy ledger of the run.
func NaiveBatch(env Env, values []float64, k, batch int) (*Result, error) {
	if len(values) != env.Net.Size() {
		return nil, fmt.Errorf("exec: %d readings for %d nodes", len(values), env.Net.Size())
	}
	if k < 1 {
		return nil, fmt.Errorf("exec: NaiveBatch needs k >= 1, got %d", k)
	}
	if batch < 1 {
		return nil, fmt.Errorf("exec: NaiveBatch needs batch >= 1, got %d", batch)
	}
	env = env.instrumented()
	s := &naiveBatch{
		env:     env,
		values:  values,
		batch:   batch,
		ownUsed: make([]bool, env.Net.Size()),
		pending: make(map[network.NodeID][]ValueAt, env.Net.Size()),
		done:    make(map[network.NodeID]bool, env.Net.Size()),
	}
	res := &Result{}
	env.em.begin(obs.F("plan", "naive-batch"), obs.F("k", k), obs.F("batch", batch))
	got := s.next(network.Root, k, &res.Ledger)
	if len(got) > k {
		got = got[:k]
	}
	res.Returned = got
	env.em.finish(&res.Ledger)
	return res, nil
}

type naiveBatch struct {
	env     Env
	values  []float64
	batch   int
	ownUsed []bool
	pending map[network.NodeID][]ValueAt
	done    map[network.NodeID]bool
}

// chargeRequest debits one batch request unicast down the edge above c.
func (s *naiveBatch) chargeRequest(c network.NodeID, led *energy.Ledger) {
	cost := s.env.reroute(c, s.env.Costs.Model().Request())
	led.Requests += cost
	led.Messages++
	s.env.em.request(c, cost)
}

// chargeReply debits the reply message carrying a batch of values back
// up the edge above c (an empty reply is still a message).
func (s *naiveBatch) chargeReply(c network.NodeID, vals []ValueAt, led *energy.Ledger) {
	cost := s.env.reroute(c, s.env.Costs.Msg[c]+s.env.Costs.ValueCost(c, len(vals)))
	led.Collection += cost
	led.Messages++
	led.Values += len(vals)
	s.env.em.msg(c, len(vals), len(vals)*s.env.Costs.Model().BytesPerValue, cost)
}

// next pops up to want of the largest remaining values of v's subtree,
// refilling child buffers batch values at a time.
func (s *naiveBatch) next(v network.NodeID, want int, led *energy.Ledger) []ValueAt {
	net := s.env.Net
	var out []ValueAt
	for len(out) < want {
		// Refill any empty, unexhausted child buffer.
		for _, c := range net.Children(v) {
			if s.done[c] || len(s.pending[c]) > 0 {
				continue
			}
			s.chargeRequest(c, led)
			vals := s.next(c, s.batch, led)
			s.chargeReply(c, vals, led)
			if len(vals) == 0 {
				s.done[c] = true
				continue
			}
			s.pending[c] = vals
			if len(vals) < s.batch {
				// Short reply: subtree exhausted after this buffer.
				s.done[c] = true
			}
		}
		// Pop the best among own value and child buffer heads.
		var best *ValueAt
		var bestChild network.NodeID = -1
		if !s.ownUsed[v] {
			best = &ValueAt{Node: v, Val: s.values[v]}
		}
		for _, c := range net.Children(v) {
			if buf := s.pending[c]; len(buf) > 0 && (best == nil || buf[0].Outranks(*best)) {
				b := buf[0]
				best = &b
				bestChild = c
			}
		}
		if best == nil {
			break // subtree exhausted
		}
		if bestChild >= 0 {
			s.pending[bestChild] = s.pending[bestChild][1:]
		} else {
			s.ownUsed[v] = true
		}
		out = append(out, *best)
	}
	return out
}
