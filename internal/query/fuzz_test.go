package query

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse: it must never panic, and
// every query it accepts must survive its canonical form, i.e.
// Parse(q.String()) returns a query deep-equal to q. The seed corpus
// lives in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		canon := q.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its canonical form %q did not re-parse: %v", text, canon, err)
		}
		if !reflect.DeepEqual(again, q) {
			t.Fatalf("Parse(%q) = %+v, but its canonical form %q parses to %+v", text, *q, canon, *again)
		}
	})
}
