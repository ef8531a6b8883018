// Package energy models the communication energy costs of a sensor
// network in the style of Crossbow MICA2 motes, following Section 2 of
// Silberstein et al., "A Sampling-Based Approach to Optimizing Top-k
// Queries in Sensor Networks" (ICDE 2006).
//
// The total energy spent sending and receiving a unicast message with w
// bytes of content is Cm + Cb*w, where Cm is the per-message cost (radio
// handshake plus headers of a reliable protocol) and Cb the per-byte
// cost. The defining property, which all of the paper's results depend
// on, is that Cm is large compared with the cost of one value
// (Cb*BytesPerValue): merely contacting a node is expensive regardless
// of how little it transmits.
//
// Energy is a plain float64 in millijoules (mJ): totals, budgets and
// ledgers all share it. The model's two rates are defined types of
// their own (MJPerByte, MJPerValue), so adding a rate to an energy
// total as if it were a flat cost does not compile. A rate becomes
// energy only by multiplying out a count: ByteCost, Unicast and Request
// here, and plan's Costs.ValueCost and Costs.ProofMetaCost.
package energy

import "fmt"

// MJPerByte is an energy rate per byte of message content (mJ/B).
type MJPerByte float64

// MJPerValue is an energy rate per sensor value carried across one
// link (mJ/val).
type MJPerValue float64

// Model holds the parameters of the communication cost model. All costs
// are in millijoules (mJ). The zero value is not useful; use DefaultModel
// or fill in every field.
type Model struct {
	// PerMessage (Cm) is the fixed cost of one unicast message,
	// covering the sender/receiver handshake of the reliable protocol
	// and the message header. Charged once per message, shared by
	// sender and receiver.
	PerMessage float64
	// PerByte (Cb) is the combined send+receive cost of one byte of
	// message content.
	PerByte MJPerByte
	// BytesPerValue is the encoded size of one sensor reading.
	BytesPerValue int
	// BytesPerRequest is the encoded size of a mop-up request triple
	// (count, low bound, high bound) used by exact second phases.
	BytesPerRequest int
	// TriggerFraction scales PerMessage for the broadcast
	// "re-execute" trigger of a subsequent distribution phase: a
	// broadcast has no per-receiver handshake, so it is cheaper than a
	// unicast. One trigger broadcast is charged per internal node that
	// forwards the trigger.
	TriggerFraction float64
}

// DefaultModel returns the cost model used throughout the reproduction.
//
// The MICA2 specification table in the paper is partially illegible in
// the available text, so the constants are re-derived from the MICA2
// datasheet the paper cites: transmit ~81 mW (27 mA at 3 V), receive
// ~30 mW (10 mA), effective radio throughput ~2400 bytes/sec (38.4
// kbaud Manchester-encoded), giving Cb = (81+30)/2400 ~= 0.046 mJ per
// byte of content sent and received. A reading is carried as 4 bytes
// (node id + value). The per-message cost covers the reliable
// protocol's handshake plus headers (~26 byte-equivalents), so Cm is
// high compared with one value — the property that motivates
// approximate plans — while the per-value cost remains substantial
// enough that local filtering pays, as in the paper's Figure 5.
func DefaultModel() Model {
	return Model{
		PerMessage:      1.2,
		PerByte:         0.046,
		BytesPerValue:   4,
		BytesPerRequest: 8,
		TriggerFraction: 0.25,
	}
}

// PerValue returns the cost of carrying one sensor value across one
// link, excluding the per-message overhead.
func (m Model) PerValue() MJPerValue {
	return MJPerValue(float64(m.PerByte) * float64(m.BytesPerValue))
}

// ByteCost returns the energy of carrying bytes of message content
// across one link, excluding the per-message overhead.
func (m Model) ByteCost(bytes int) float64 { return float64(m.PerByte) * float64(bytes) }

// TxFraction is the sender's share of a link cost, from the MICA2
// power draw ratio (transmit ~81 mW vs receive ~30 mW). The
// discrete-event simulator uses it to split each message's combined
// cost between the two radios.
const TxFraction = 81.0 / (81.0 + 30.0)

// TxShare returns the sender's part of a combined link cost.
func (m Model) TxShare(cost float64) float64 { return cost * TxFraction }

// RxShare returns the receiver's part of a combined link cost.
func (m Model) RxShare(cost float64) float64 { return cost * (1 - TxFraction) }

// Unicast returns the total cost of one unicast message carrying
// nValues sensor readings plus extraBytes of other content.
func (m Model) Unicast(nValues, extraBytes int) float64 {
	return m.PerMessage + m.ByteCost(nValues*m.BytesPerValue+extraBytes)
}

// Trigger returns the cost of one broadcast trigger message used to
// start a subsequent collection phase.
func (m Model) Trigger() float64 { return m.PerMessage * m.TriggerFraction }

// Request returns the cost of one mop-up request message.
func (m Model) Request() float64 {
	return m.PerMessage + m.ByteCost(m.BytesPerRequest)
}

// Validate reports an error if the model's parameters are not usable.
func (m Model) Validate() error {
	switch {
	case m.PerMessage <= 0:
		return fmt.Errorf("energy: PerMessage must be positive, got %g", m.PerMessage)
	case m.PerByte <= 0:
		return fmt.Errorf("energy: PerByte must be positive, got %g", m.PerByte)
	case m.BytesPerValue <= 0:
		return fmt.Errorf("energy: BytesPerValue must be positive, got %d", m.BytesPerValue)
	case m.BytesPerRequest < 0:
		return fmt.Errorf("energy: BytesPerRequest must be non-negative, got %d", m.BytesPerRequest)
	case m.TriggerFraction < 0 || m.TriggerFraction > 1:
		return fmt.Errorf("energy: TriggerFraction must be in [0,1], got %g", m.TriggerFraction)
	}
	return nil
}

// Ledger accumulates energy spending, broken down by category, during
// plan execution. The zero value is an empty ledger ready to use.
type Ledger struct {
	// Collection is energy spent moving values up the tree.
	Collection float64
	// Trigger is energy spent broadcasting re-execute triggers.
	Trigger float64
	// Requests is energy spent on mop-up request messages.
	Requests float64
	// Install is energy spent unicasting subplans during the initial
	// distribution phase.
	Install float64
	// Messages counts every message sent, of any kind.
	Messages int
	// Values counts every value transmission (a value crossing one
	// link counts once).
	Values int
}

// Total returns all energy spent, across every category.
func (l *Ledger) Total() float64 {
	return l.Collection + l.Trigger + l.Requests + l.Install
}

// Add accumulates another ledger into l.
func (l *Ledger) Add(o Ledger) {
	l.Collection += o.Collection
	l.Trigger += o.Trigger
	l.Requests += o.Requests
	l.Install += o.Install
	l.Messages += o.Messages
	l.Values += o.Values
}

// String formats the ledger for logs and CLI output.
func (l *Ledger) String() string {
	return fmt.Sprintf("total=%.2fmJ (collect=%.2f trigger=%.2f request=%.2f install=%.2f) msgs=%d values=%d",
		l.Total(), l.Collection, l.Trigger, l.Requests, l.Install, l.Messages, l.Values)
}
