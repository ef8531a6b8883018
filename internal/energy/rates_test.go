package energy_test

import (
	"math"
	"reflect"
	"testing"

	"prospector/internal/energy"
	"prospector/internal/network"
	"prospector/internal/plan"
)

// TestRateTypesAreDistinct pins the type guard on the cost model's
// rates: each is a defined type, not float64 or an alias of it, so a
// rate added to an energy total does not compile. An alias would make
// this test fail, and the guard silently disappear.
func TestRateTypesAreDistinct(t *testing.T) {
	f64 := reflect.TypeOf(0.0)
	if reflect.TypeOf(energy.MJPerByte(0)) == f64 {
		t.Error("MJPerByte is float64; the rate types must be defined types")
	}
	if reflect.TypeOf(energy.MJPerValue(0)) == f64 {
		t.Error("MJPerValue is float64; the rate types must be defined types")
	}
	if reflect.TypeOf(energy.MJPerByte(0)) == reflect.TypeOf(energy.MJPerValue(0)) {
		t.Error("MJPerByte and MJPerValue are the same type")
	}
	if typ := reflect.TypeOf(energy.Model{}.PerByte); typ != reflect.TypeOf(energy.MJPerByte(0)) {
		t.Errorf("Model.PerByte is %v, want energy.MJPerByte", typ)
	}
	if typ := reflect.TypeOf(plan.Costs{}.Val).Elem(); typ != reflect.TypeOf(energy.MJPerValue(0)) {
		t.Errorf("Costs.Val holds %v, want energy.MJPerValue", typ)
	}
}

// TestRateConversionsBitIdentical holds each named conversion from a
// rate to energy to the plain float64 expression it replaced, bit for
// bit, on the default model and on failure-inflated costs.
func TestRateConversionsBitIdentical(t *testing.T) {
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %.17g, want %.17g bit for bit", what, got, want)
		}
	}
	m := energy.DefaultModel()
	cm, cb := m.PerMessage, float64(m.PerByte)
	perValue := cb * float64(m.BytesPerValue)
	same("PerValue", float64(m.PerValue()), perValue)
	same("Request", m.Request(), cm+cb*float64(m.BytesPerRequest))
	for n := 0; n <= 64; n++ {
		same("ByteCost", m.ByteCost(n), cb*float64(n))
		for extra := 0; extra <= 24; extra += 3 {
			same("Unicast", m.Unicast(n, extra), cm+cb*float64(n*m.BytesPerValue+extra))
		}
	}

	net := network.Line(5)
	c := plan.NewCosts(net, m)
	same("ProofMetaCost", c.ProofMetaCost(), cb*1)
	failProb := []float64{0, 0.1, 0.25, 1.0 / 3, 0.9}
	const reroute = 1.7
	if err := c.InflateForFailures(failProb, reroute); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < net.Size(); i++ {
		v := network.NodeID(i)
		val := perValue
		val *= 1 + failProb[i]*reroute
		for n := 0; n <= 64; n++ {
			same("ValueCost", c.ValueCost(v, n), val*float64(n))
		}
	}
}
