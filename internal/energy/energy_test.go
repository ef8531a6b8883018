package energy

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The property all the paper's tradeoffs rest on: contacting a
	// node (one message) costs much more than carrying one value.
	perValue := float64(m.PerValue())
	if m.PerMessage < 4*perValue {
		t.Errorf("PerMessage %.3f not well above per-value %.3f", m.PerMessage, perValue)
	}
	// But a value is not free either, or local filtering could never
	// pay (Figure 5's crossover).
	if perValue < m.PerMessage/20 {
		t.Errorf("per-value %.4f negligible against PerMessage %.3f", perValue, m.PerMessage)
	}
}

func TestUnicastCost(t *testing.T) {
	m := DefaultModel()
	base := m.Unicast(0, 0)
	if base != m.PerMessage {
		t.Errorf("empty unicast = %g", base)
	}
	one := m.Unicast(1, 0)
	if got, want := one-base, float64(m.PerValue()); math.Abs(got-want) > 1e-12 {
		t.Errorf("marginal value cost %g, want %g", got, want)
	}
	withExtra := m.Unicast(2, 3)
	want := m.PerMessage + float64(m.PerByte)*float64(2*m.BytesPerValue+3)
	if math.Abs(withExtra-want) > 1e-12 {
		t.Errorf("unicast(2,3) = %g, want %g", withExtra, want)
	}
}

func TestTriggerCheaperThanUnicast(t *testing.T) {
	m := DefaultModel()
	if m.Trigger() >= m.Unicast(0, 0) {
		t.Errorf("trigger %g not cheaper than empty unicast %g", m.Trigger(), m.Unicast(0, 0))
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Model)
	}{
		{"zero PerMessage", func(m *Model) { m.PerMessage = 0 }},
		{"negative PerByte", func(m *Model) { m.PerByte = -1 }},
		{"zero BytesPerValue", func(m *Model) { m.BytesPerValue = 0 }},
		{"negative BytesPerRequest", func(m *Model) { m.BytesPerRequest = -1 }},
		{"TriggerFraction above 1", func(m *Model) { m.TriggerFraction = 1.5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := DefaultModel()
			c.mut(&m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted the bad model")
			}
		})
	}
}

func TestLedgerAccumulation(t *testing.T) {
	var l Ledger
	l.Collection = 10
	l.Trigger = 1
	l.Messages = 3
	l.Values = 7
	var o Ledger
	o.Collection = 5
	o.Requests = 2
	o.Install = 4
	o.Messages = 2
	o.Values = 1
	l.Add(o)
	if got := l.Total(); math.Abs(got-22) > 1e-12 {
		t.Errorf("Total = %g, want 22", got)
	}
	if l.Messages != 5 || l.Values != 8 {
		t.Errorf("counts %d/%d", l.Messages, l.Values)
	}
	if s := l.String(); !strings.Contains(s, "msgs=5") {
		t.Errorf("String() = %q", s)
	}
}
