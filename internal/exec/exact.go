package exec

import (
	"fmt"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/obs"
)

// MopUpResult is the outcome of an exact second phase.
type MopUpResult struct {
	// Answer is the exact top k of the network.
	Answer []ValueAt
	// Ledger accounts the second phase only (request broadcasts and
	// response messages).
	Ledger energy.Ledger
	// Queried reports whether any request had to be sent at all.
	Queried bool
}

// MopUp runs PROSPECTOR EXACT's second phase over the state of a
// proof-carrying collection: the root determines which of the top k
// remain unproven and recursively retrieves, from each subtree, the top
// candidates within the still-uncertain value range (Section 4.3).
func (st *ProofState) MopUp(k int) (*MopUpResult, error) {
	if st == nil {
		return nil, fmt.Errorf("exec: MopUp needs the state of a proof-phase run")
	}
	if k < 1 {
		return nil, fmt.Errorf("exec: MopUp needs k >= 1, got %d", k)
	}
	res := &MopUpResult{}
	m := &mopper{st: st, res: res}
	st.env.em.begin(obs.F("plan", "mopup"), obs.F("k", k))
	ans := m.answer(network.Root, k, nil, nil)
	if len(ans) > k {
		ans = ans[:k]
	}
	res.Answer = ans
	st.env.em.finish(&res.Ledger)
	return res, nil
}

// mopper carries the mutable recursion state of one mop-up.
type mopper struct {
	st  *ProofState
	res *MopUpResult
}

// between reports whether x lies strictly inside the open rank interval
// (lo, hi); nil bounds are infinite.
func between(x ValueAt, lo, hi *ValueAt) bool {
	if hi != nil && !hi.Outranks(x) {
		return false
	}
	if lo != nil && !x.Outranks(*lo) {
		return false
	}
	return true
}

// minRank returns the lower-ranked of two optional bounds (nil means
// "no bound", i.e. infinitely high rank).
func minRank(a, b *ValueAt) *ValueAt {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.Outranks(*b):
		return b
	default:
		return a
	}
}

// answer returns, for node v, the complete top-t list of subtree(v)
// values strictly inside the rank interval (lo, hi), retrieving missing
// values from v's children as needed. It updates retrieved[v] with
// everything learned.
func (m *mopper) answer(v network.NodeID, t int, lo, hi *ValueAt) []ValueAt {
	st := m.st
	net := st.env.Net
	known := st.retrieved[v] // sorted by rank, deduped by construction

	// The proven prefix of v's list is the exact top of its subtree:
	// every subtree value outranking the last proven value is known.
	var cutoff *ValueAt
	if p := st.provenCnt[v]; p > 0 {
		c := known[p-1]
		cutoff = &c
	}
	complete := len(known) == net.SubtreeSize(v)

	// Count how much of the request the certain region already covers.
	certain := 0
	for _, x := range known {
		if !between(x, lo, hi) {
			continue
		}
		if complete || (cutoff != nil && !cutoff.Outranks(x)) {
			certain++
			if certain >= t {
				break
			}
		} else {
			break // below the certainty cutoff; stop counting
		}
	}
	need := t - certain
	if need > 0 && !complete && len(net.Children(v)) > 0 {
		// The uncertain zone: ranks strictly below the proven cutoff
		// (hidden values cannot outrank it) and above lo, tightened by
		// candidates v already holds in the zone.
		hi2 := minRank(hi, cutoff)
		lo2 := lo
		zoneCands := 0
		for _, x := range known {
			if between(x, lo2, hi2) {
				zoneCands++
				if zoneCands == need {
					c := x
					lo2 = minRankLow(lo2, &c)
					break
				}
			}
		}
		if zoneOpen(lo2, hi2) {
			m.chargeRequest(v)
			for _, c := range net.Children(v) {
				if len(st.sent[c]) == net.SubtreeSize(c) {
					continue // child already fully visible at v
				}
				resp := m.answer(c, need, lo2, hi2)
				m.respond(c, resp, v)
			}
			known = st.retrieved[v]
		}
	}
	// Assemble the top-t in range from (now augmented) knowledge.
	var out []ValueAt
	for _, x := range known {
		if between(x, lo, hi) {
			out = append(out, x)
			if len(out) == t {
				break
			}
		}
	}
	return out
}

// minRankLow returns the higher-ranked of two optional lower bounds
// (nil means no bound, i.e. infinitely low).
func minRankLow(a, b *ValueAt) *ValueAt {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.Outranks(*b):
		return a
	default:
		return b
	}
}

// zoneOpen reports whether the open interval (lo, hi) can contain any
// value.
func zoneOpen(lo, hi *ValueAt) bool {
	if lo == nil || hi == nil {
		return true
	}
	return hi.Outranks(*lo)
}

// chargeRequest debits one mop-up request broadcast from v to its
// children.
func (m *mopper) chargeRequest(v network.NodeID) {
	cost := m.st.env.Costs.Model().Request()
	m.res.Ledger.Requests += cost
	m.res.Ledger.Messages++
	m.st.env.em.request(v, cost)
	m.res.Queried = true
}

// chargeReply debits a mop-up response unicast carrying n fresh values
// on the edge above c.
func (m *mopper) chargeReply(c network.NodeID, n int) {
	env := m.st.env
	cost := env.reroute(c, env.Costs.Msg[c]+env.Costs.ValueCost(c, n))
	m.res.Ledger.Requests += cost
	m.res.Ledger.Messages++
	m.res.Ledger.Values += n
	env.em.msg(c, n, n*env.Costs.Model().BytesPerValue, cost)
}

// respond merges a child's response into the parent's knowledge and
// charges the response message. Values the child already delivered in
// phase 1 are not retransmitted.
func (m *mopper) respond(c network.NodeID, resp []ValueAt, parent network.NodeID) {
	st := m.st
	have := make(map[network.NodeID]bool, len(st.retrieved[parent]))
	for _, x := range st.retrieved[parent] {
		have[x.Node] = true
	}
	var fresh []ValueAt
	for _, x := range resp {
		if !have[x.Node] {
			fresh = append(fresh, x)
		}
	}
	m.chargeReply(c, len(fresh))
	if len(fresh) > 0 {
		merged := append(st.retrieved[parent], fresh...)
		SortDesc(merged)
		st.retrieved[parent] = merged
	}
}
