package regress

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzBaselineRead feeds arbitrary documents to Read, which validates
// what it parses. It must never panic, and every baseline it accepts
// must write out and read back to an equal baseline. The seeds are the
// committed figure-3 baseline plus the corpus in
// testdata/fuzz/FuzzBaselineRead.
func FuzzBaselineRead(f *testing.F) {
	committed, err := os.ReadFile("../../results/baselines/figure3.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("Read accepted a baseline Validate rejects: %v", err)
		}
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatalf("write an accepted baseline: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("read back a written baseline: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(b, back) {
			t.Fatalf("round trip changed the baseline:\n%+v\n%+v", b, back)
		}
	})
}
