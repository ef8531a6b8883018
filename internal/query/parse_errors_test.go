package query

import (
	"strings"
	"testing"
)

// TestParseErrorMessages pins the message of every distinct lexer and
// parser error path, so a refactor cannot silently collapse two
// failure modes into one vague error. TestParseErrors (query_test.go)
// covers the err != nil contract; this table covers what the user is
// told.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error message
	}{
		// Lexer errors.
		{"number with two dots", "SELECT TOP 1.2.3 FROM s", `malformed number "1.2.3"`},
		{"bare dot number", "SELECT TOP . FROM s", "malformed number"},
		{"unexpected character", "SELECT TOP 5 @ FROM s", "unexpected character '@'"},
		{"parenthesis", "SELECT TOP 5 FROM s (", "unexpected character '('"},
		{"parenthesized k", "SELECT TOP (5) FROM s", "unexpected character '('"},

		// SELECT target errors.
		{"missing SELECT", "TOP 5 FROM s", "expected SELECT"},
		{"bad target", "SELECT DOWN 5 FROM s", "expected TOP or *"},
		{"TOP without k", "SELECT TOP FROM s", "expected a number"},
		{"TOP zero", "SELECT TOP 0 FROM s", "TOP wants a positive integer"},
		{"TOP fractional", "SELECT TOP 2.5 FROM s", "TOP wants a positive integer"},

		// Aggregates are not queries: whatever follows, the parser
		// rejects the function name before the lexer reaches a
		// parenthesis.
		{"MAX aggregate", "SELECT MAX(value) FROM s", `expected TOP or *, got "MAX"`},
		{"MEDIAN aggregate", "SELECT MEDIAN(value) FROM s", `expected TOP or *, got "MEDIAN"`},
		{"aggregate missing paren", "SELECT MAX value) FROM s", `expected TOP or *, got "MAX"`},
		{"aggregate wrong column", "SELECT MAX(reading) FROM s", `expected TOP or *, got "MAX"`},
		{"aggregate unclosed", "SELECT MAX(value FROM s", `expected TOP or *, got "MAX"`},
		{"aggregate with clause", "SELECT MAX(value) FROM s BUDGET 10%", `expected TOP or *, got "MAX"`},

		// FROM errors.
		{"missing FROM", "SELECT TOP 5 sensors", "expected FROM"},
		{"missing source", "SELECT TOP 5 FROM", "expected a source name"},

		// Clause errors.
		{"clause not a word", "SELECT TOP 5 FROM s 42", "expected a clause keyword"},
		{"unknown clause", "SELECT TOP 5 FROM s FROBNICATE", `unknown clause "FROBNICATE"`},
		{"BUDGET without amount", "SELECT TOP 5 FROM s BUDGET", "expected a number"},
		{"BUDGET zero", "SELECT TOP 5 FROM s BUDGET 0", "BUDGET must be positive"},
		{"BUDGET negative", "SELECT TOP 5 FROM s BUDGET -3", "BUDGET must be positive"},
		{"BUDGET absurd percent", "SELECT TOP 5 FROM s BUDGET 2000%", "not a percentage"},
		{"duplicate BUDGET", "SELECT TOP 5 FROM s BUDGET 30% BUDGET 10%", "duplicate BUDGET"},
		{"unknown planner", "SELECT TOP 5 FROM s USING DIJKSTRA", "expected GREEDY or LP-LF or LP+LF or PROOF or EXACT"},
		{"WITH without PROOF", "SELECT TOP 5 FROM s WITH BUDGET 10%", "expected PROOF"},
		{"SAMPLES zero", "SELECT TOP 5 FROM s SAMPLES 0", "SAMPLES wants a positive integer"},
		{"SAMPLES fractional", "SELECT TOP 5 FROM s SAMPLES 2.5", "SAMPLES wants a positive integer"},

		// WHERE errors.
		{"duplicate WHERE", "SELECT * FROM s WHERE value > 5 WHERE value > 6", "duplicate WHERE"},
		{"WHERE wrong column", "SELECT * FROM s WHERE reading > 5", "expected VALUE"},
		{"WHERE wrong operator", "SELECT * FROM s WHERE value < 5", "only 'value > t' predicates"},
		{"WHERE without threshold", "SELECT * FROM s WHERE value >", "expected a number"},
		{"WHERE on TOP-k", "SELECT TOP 5 FROM s WHERE value > 5", "WHERE applies to 'SELECT *'"},

		// Cross-clause validation.
		{"selection without WHERE", "SELECT * FROM s", "needs a WHERE value > t predicate"},
		{"proof on selection", "SELECT * FROM s WHERE value > 5 WITH PROOF", "proof/exact execution applies to TOP-k"},
		{"exact on selection", "SELECT * FROM s WHERE value > 5 EXACT", "proof/exact execution applies to TOP-k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.in)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.in, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse(%q) error = %q, want it to contain %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestParseBudgetUnits covers the three accepted BUDGET spellings,
// including the bare-number default-to-mJ path.
func TestParseBudgetUnits(t *testing.T) {
	for _, tc := range []struct {
		in       string
		mj, frac float64
	}{
		{"SELECT TOP 5 FROM s BUDGET 900mJ", 900, 0},
		{"SELECT TOP 5 FROM s BUDGET 900", 900, 0},
		{"SELECT TOP 5 FROM s BUDGET 25%", 0, 0.25},
	} {
		q, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if q.Budget.MJ != tc.mj || q.Budget.Frac != tc.frac {
			t.Errorf("Parse(%q) budget = %+v, want MJ=%g Frac=%g", tc.in, q.Budget, tc.mj, tc.frac)
		}
	}
}
