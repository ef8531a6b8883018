package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies the query shape.
type Kind int

// Query kinds.
const (
	// TopK returns the k highest readings (approximate by default).
	TopK Kind = iota
	// Selection returns readings above a threshold.
	Selection
)

// PlannerName selects the optimization algorithm.
type PlannerName string

// Recognized planners.
const (
	PlannerGreedy PlannerName = "GREEDY"
	PlannerLPNoLF PlannerName = "LP-LF"
	PlannerLPLF   PlannerName = "LP+LF"
	PlannerProof  PlannerName = "PROOF"
	PlannerExact  PlannerName = "EXACT"
)

// Budget is an energy budget: either absolute millijoules or a
// fraction of the NAIVE-k baseline cost. Exactly one side is set.
type Budget struct {
	MJ   float64
	Frac float64
}

// IsZero reports whether no budget was given.
func (b Budget) IsZero() bool { return b.MJ == 0 && b.Frac == 0 }

// Query is a parsed query, ready for binding by an Engine.
type Query struct {
	Kind      Kind
	K         int     // TopK
	Threshold float64 // Selection: value > Threshold
	Planner   PlannerName
	Budget    Budget
	Samples   int // requested sample-window size; 0 = engine default
}

// String renders the query back in canonical form: Parse(q.String())
// returns a query equal to q.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch q.Kind {
	case TopK:
		fmt.Fprintf(&b, "TOP %d", q.K)
	default:
		b.WriteString("*")
	}
	b.WriteString(" FROM sensors")
	if q.Kind == Selection {
		fmt.Fprintf(&b, " WHERE value > %s", decimal(q.Threshold))
	}
	if !q.Budget.IsZero() {
		if q.Budget.MJ > 0 {
			fmt.Fprintf(&b, " BUDGET %smJ", decimal(q.Budget.MJ))
		} else {
			fmt.Fprintf(&b, " BUDGET %s%%", decimal(q.Budget.Frac*100))
		}
	}
	fmt.Fprintf(&b, " USING %s", q.Planner)
	if q.Samples > 0 {
		fmt.Fprintf(&b, " SAMPLES %d", q.Samples)
	}
	return b.String()
}

// decimal formats x as the shortest plain decimal that reads back as
// x. The lexer takes no exponents, so %g's "1e+06" would not re-parse.
func decimal(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// Parse parses a query string. The grammar (keywords are
// case-insensitive):
//
//	query    := SELECT target FROM ident clause*
//	target   := TOP number
//	          | '*'                           (needs a WHERE clause)
//	clause   := BUDGET number ('%' | MJ)?    (default: mJ)
//	          | USING planner
//	          | WITH PROOF                   (same as USING PROOF)
//	          | EXACT                        (same as USING EXACT)
//	          | SAMPLES number
//	          | WHERE VALUE '>' number
//	planner  := GREEDY | LP-LF | LP+LF | PROOF | EXACT
func Parse(s string) (*Query, error) {
	toks, lexErr := lex(s)
	p := &parser{toks: toks}
	q, err := p.parse()
	if lexErr != nil && (err == nil || p.atEnd) {
		// The parser got as far as the lexical error: it comes first.
		return nil, lexErr
	}
	return q, err
}

type parser struct {
	toks  []token
	i     int
	atEnd bool // the parser has looked at the final tokEOF
}

func (p *parser) cur() token {
	t := p.toks[p.i]
	p.atEnd = p.atEnd || t.kind == tokEOF
	return t
}

func (p *parser) next() token { t := p.cur(); p.i++; return t }

func (p *parser) expectWord(words ...string) (string, error) {
	t := p.next()
	if t.kind != tokWord {
		return "", fmt.Errorf("query: expected %s, got %v at offset %d", strings.Join(words, " or "), t, t.pos)
	}
	for _, w := range words {
		if t.text == w {
			return w, nil
		}
	}
	return "", fmt.Errorf("query: expected %s, got %v at offset %d", strings.Join(words, " or "), t, t.pos)
}

func (p *parser) expectNumber() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("query: expected a number, got %v at offset %d", t, t.pos)
	}
	return t.num, nil
}

func (p *parser) parse() (*Query, error) {
	if _, err := p.expectWord("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Planner: PlannerLPLF}
	switch t := p.next(); {
	case t.kind == tokWord && t.text == "TOP":
		k, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if k < 1 || k != float64(int(k)) {
			return nil, fmt.Errorf("query: TOP wants a positive integer, got %g", k)
		}
		q.Kind = TopK
		q.K = int(k)
	case t.kind == tokStar:
		q.Kind = Selection
	default:
		return nil, fmt.Errorf("query: expected TOP or *, got %v at offset %d", t, t.pos)
	}
	if _, err := p.expectWord("FROM"); err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tokWord {
		return nil, fmt.Errorf("query: expected a source name, got %v at offset %d", t, t.pos)
	}
	sawWhere := false
	for p.cur().kind != tokEOF {
		t := p.next()
		if t.kind != tokWord {
			return nil, fmt.Errorf("query: expected a clause keyword, got %v at offset %d", t, t.pos)
		}
		switch t.text {
		case "BUDGET":
			if !q.Budget.IsZero() {
				return nil, fmt.Errorf("query: duplicate BUDGET at offset %d", t.pos)
			}
			n, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if n <= 0 {
				return nil, fmt.Errorf("query: BUDGET must be positive, got %g", n)
			}
			switch nt := p.cur(); {
			case nt.kind == tokPercent:
				p.next()
				if n >= 1000 {
					return nil, fmt.Errorf("query: BUDGET %g%% is not a percentage", n)
				}
				q.Budget.Frac = n / 100
			case nt.kind == tokWord && nt.text == "MJ":
				p.next()
				q.Budget.MJ = n
			default:
				q.Budget.MJ = n
			}
		case "USING":
			name, err := p.expectWord(string(PlannerGreedy), string(PlannerLPNoLF),
				string(PlannerLPLF), string(PlannerProof), string(PlannerExact))
			if err != nil {
				return nil, err
			}
			q.Planner = PlannerName(name)
		case "WITH":
			if _, err := p.expectWord("PROOF"); err != nil {
				return nil, err
			}
			q.Planner = PlannerProof
		case "EXACT":
			q.Planner = PlannerExact
		case "SAMPLES":
			n, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if n < 1 || n != float64(int(n)) {
				return nil, fmt.Errorf("query: SAMPLES wants a positive integer, got %g", n)
			}
			q.Samples = int(n)
		case "WHERE":
			if sawWhere {
				return nil, fmt.Errorf("query: duplicate WHERE at offset %d", t.pos)
			}
			sawWhere = true
			if _, err := p.expectWord("VALUE"); err != nil {
				return nil, err
			}
			if op := p.next(); op.kind != tokGT {
				return nil, fmt.Errorf("query: only 'value > t' predicates are supported, got %v", op)
			}
			tau, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			q.Threshold = tau
			if q.Kind != Selection {
				return nil, fmt.Errorf("query: WHERE applies to 'SELECT *' selection queries")
			}
		default:
			return nil, fmt.Errorf("query: unknown clause %q at offset %d", t.text, t.pos)
		}
	}
	if q.Kind == Selection && !sawWhere {
		return nil, fmt.Errorf("query: 'SELECT *' needs a WHERE value > t predicate")
	}
	if q.Kind == Selection && (q.Planner == PlannerProof || q.Planner == PlannerExact) {
		return nil, fmt.Errorf("query: proof/exact execution applies to TOP-k queries")
	}
	return q, nil
}
