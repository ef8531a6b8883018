package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMPS parses a linear program in free-format MPS, the lingua
// franca of LP solvers, so models can move between this solver and
// CPLEX-class tools. Supported sections: NAME, OBJSENSE (MAX/MIN,
// an extension most solvers accept), ROWS, COLUMNS, RHS, RANGES,
// BOUNDS (UP, LO, FX, FR, MI, PL, BV), ENDATA. Integrality markers
// (MARKER/INTORG/INTEND) are accepted and ignored — this is an LP
// solver; the planners handle rounding.
func ReadMPS(r io.Reader) (*Model, error) {
	p := &mpsParser{
		m:        NewModel(),
		rowIdx:   map[string]int{},
		colIdx:   map[string]VarID{},
		rowSense: map[string]Sense{},
		rowTerms: map[string][]Term{},
		rowRHS:   map[string]float64{},
		rowRange: map[string]float64{},
		loSet:    map[VarID]bool{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	section := ""
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		// Section headers start in column 1 (no leading whitespace).
		if !strings.HasPrefix(raw, " ") && !strings.HasPrefix(raw, "\t") {
			fields := strings.Fields(trimmed)
			section = strings.ToUpper(fields[0])
			switch section {
			case "NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE":
			default:
				return nil, fmt.Errorf("lp: mps line %d: unknown section %q", line, section)
			}
			if section == "OBJSENSE" && len(fields) > 1 {
				if strings.ToUpper(fields[1]) == "MAX" || strings.ToUpper(fields[1]) == "MAXIMIZE" {
					p.m.Maximize()
				}
			}
			if section == "ENDATA" {
				return p.finish()
			}
			continue
		}
		fields := strings.Fields(trimmed)
		var err error
		switch section {
		case "OBJSENSE":
			if strings.ToUpper(fields[0]) == "MAX" || strings.ToUpper(fields[0]) == "MAXIMIZE" {
				p.m.Maximize()
			}
		case "ROWS":
			err = p.rowLine(fields)
		case "COLUMNS":
			err = p.columnLine(fields)
		case "RHS":
			err = p.rhsLine(fields)
		case "RANGES":
			err = p.rangeLine(fields)
		case "BOUNDS":
			err = p.boundLine(fields)
		default:
			err = fmt.Errorf("data outside a section")
		}
		if err != nil {
			return nil, fmt.Errorf("lp: mps line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.finish()
}

type mpsParser struct {
	m        *Model
	objRow   string
	rowOrder []string
	rowIdx   map[string]int
	colIdx   map[string]VarID
	rowSense map[string]Sense
	rowTerms map[string][]Term
	rowRHS   map[string]float64
	rowRange map[string]float64
	loSet    map[VarID]bool
	inMarker bool
}

func (p *mpsParser) rowLine(f []string) error {
	if len(f) != 2 {
		return fmt.Errorf("ROWS entries need a type and a name")
	}
	name := f[1]
	if _, dup := p.rowIdx[name]; dup || name == p.objRow {
		return fmt.Errorf("duplicate row %q", name)
	}
	switch strings.ToUpper(f[0]) {
	case "N":
		if p.objRow == "" {
			p.objRow = name
		}
		// Extra free rows are legal MPS; ignore them.
		return nil
	case "L":
		p.rowSense[name] = LE
	case "G":
		p.rowSense[name] = GE
	case "E":
		p.rowSense[name] = EQ
	default:
		return fmt.Errorf("unknown row type %q", f[0])
	}
	p.rowIdx[name] = len(p.rowOrder)
	p.rowOrder = append(p.rowOrder, name)
	return nil
}

func (p *mpsParser) columnLine(f []string) error {
	if len(f) >= 3 && strings.Contains(strings.ToUpper(f[1]), "MARKER") {
		// Integrality marker pair; tolerated, ignored.
		return nil
	}
	if len(f) != 3 && len(f) != 5 {
		return fmt.Errorf("COLUMNS entries need column, row, value [, row, value]")
	}
	col := f[0]
	id, ok := p.colIdx[col]
	if !ok {
		var err error
		id, err = p.m.AddVar(0, Inf, 0, col)
		if err != nil {
			return err
		}
		p.colIdx[col] = id
	}
	for i := 1; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return fmt.Errorf("bad coefficient %q", f[i+1])
		}
		row := f[i]
		if row == p.objRow {
			p.m.obj[id] += val
			continue
		}
		if _, ok := p.rowIdx[row]; !ok {
			return fmt.Errorf("unknown row %q", row)
		}
		p.rowTerms[row] = append(p.rowTerms[row], Term{Var: id, Coef: val})
	}
	return nil
}

func (p *mpsParser) rhsLine(f []string) error {
	if len(f) != 3 && len(f) != 5 {
		return fmt.Errorf("RHS entries need set, row, value [, row, value]")
	}
	for i := 1; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return fmt.Errorf("bad rhs %q", f[i+1])
		}
		row := f[i]
		if row == p.objRow {
			continue // objective constant; irrelevant to the argmin
		}
		if _, ok := p.rowIdx[row]; !ok {
			return fmt.Errorf("unknown row %q", row)
		}
		p.rowRHS[row] = val
	}
	return nil
}

func (p *mpsParser) rangeLine(f []string) error {
	if len(f) != 3 && len(f) != 5 {
		return fmt.Errorf("RANGES entries need set, row, value [, row, value]")
	}
	for i := 1; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return fmt.Errorf("bad range %q", f[i+1])
		}
		row := f[i]
		if _, ok := p.rowIdx[row]; !ok {
			return fmt.Errorf("unknown row %q", row)
		}
		p.rowRange[row] = val
	}
	return nil
}

func (p *mpsParser) boundLine(f []string) error {
	kind := strings.ToUpper(f[0])
	var col string
	var val float64
	switch kind {
	case "FR", "MI", "PL", "BV":
		if len(f) != 3 {
			return fmt.Errorf("%s bounds need set and column", kind)
		}
		col = f[2]
	default:
		if len(f) != 4 {
			return fmt.Errorf("%s bounds need set, column, value", kind)
		}
		col = f[2]
		var err error
		val, err = strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("bad bound %q", f[3])
		}
	}
	id, ok := p.colIdx[col]
	if !ok {
		return fmt.Errorf("bound on unknown column %q", col)
	}
	switch kind {
	case "UP":
		p.m.hi[id] = val
		if val < 0 && !p.loSet[id] {
			// MPS convention: a negative upper bound on a default-
			// lower-bounded column opens the lower bound.
			p.m.lo[id] = math.Inf(-1)
		}
	case "LO":
		p.m.lo[id] = val
		p.loSet[id] = true
	case "FX":
		p.m.lo[id], p.m.hi[id] = val, val
	case "FR":
		p.m.lo[id], p.m.hi[id] = math.Inf(-1), Inf
	case "MI":
		p.m.lo[id] = math.Inf(-1)
	case "PL":
		p.m.hi[id] = Inf
	case "BV":
		p.m.lo[id], p.m.hi[id] = 0, 1
	default:
		return fmt.Errorf("unknown bound type %q", kind)
	}
	return nil
}

// finish materializes the accumulated rows into the model.
func (p *mpsParser) finish() (*Model, error) {
	for _, row := range p.rowOrder {
		terms := p.rowTerms[row]
		if len(terms) == 0 {
			continue // empty row: trivially satisfiable with rhs conventions
		}
		sense := p.rowSense[row]
		rhs := p.rowRHS[row]
		if err := p.m.AddConstr(terms, sense, rhs); err != nil {
			return nil, fmt.Errorf("lp: mps row %q: %w", row, err)
		}
		// RANGES split a row into two inequalities.
		if rg, ok := p.rowRange[row]; ok && !isZero(rg) {
			lo, hi, err := rangeBounds(sense, rhs, rg)
			if err != nil {
				return nil, fmt.Errorf("lp: mps row %q: %w", row, err)
			}
			switch sense {
			case LE: // row <= rhs already added; add row >= lo
				if err := p.m.AddConstr(terms, GE, lo); err != nil {
					return nil, err
				}
			case GE: // row >= rhs already added; add row <= hi
				if err := p.m.AddConstr(terms, LE, hi); err != nil {
					return nil, err
				}
			case EQ:
				// Replacing an equality with an interval needs both
				// sides; the EQ row is already there, so ranges on EQ
				// rows are rejected to avoid silently tightening.
				return nil, fmt.Errorf("ranges on E rows are not supported")
			}
		}
	}
	return p.m, nil
}

func rangeBounds(sense Sense, rhs, rg float64) (lo, hi float64, err error) {
	r := math.Abs(rg)
	switch sense {
	case LE:
		return rhs - r, rhs, nil
	case GE:
		return rhs, rhs + r, nil
	}
	return 0, 0, fmt.Errorf("unsupported range")
}

// WriteMPS serializes the model as free-format MPS. Variable names are
// sanitized (whitespace replaced); unnamed variables get xN names.
func WriteMPS(w io.Writer, m *Model, name string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "PROSPECTOR"
	}
	fmt.Fprintf(bw, "NAME %s\n", sanitize(name))
	if m.maximize {
		fmt.Fprintf(bw, "OBJSENSE\n    MAX\n")
	}
	fmt.Fprintf(bw, "ROWS\n N  COST\n")
	for i := range m.rows {
		letter := map[Sense]string{LE: "L", GE: "G", EQ: "E"}[m.rows[i].sense]
		fmt.Fprintf(bw, " %s  R%d\n", letter, i)
	}
	// Column names must be unique in MPS or the reader merges them;
	// duplicates and blanks get positional names.
	names := make([]string, m.NumVars())
	seen := make(map[string]bool, m.NumVars())
	for j := range names {
		name := sanitize(m.names[j].String())
		if name == "" || seen[name] {
			name = fmt.Sprintf("x%d", j)
		}
		for n := 0; seen[name]; n++ {
			name = fmt.Sprintf("x%d_%d", j, n)
		}
		seen[name] = true
		names[j] = name
	}
	// Column-major coefficients.
	fmt.Fprintf(bw, "COLUMNS\n")
	byCol := make([][]Term, m.NumVars())
	for i, r := range m.rows {
		for _, t := range r.terms {
			byCol[t.Var] = append(byCol[t.Var], Term{Var: VarID(i), Coef: t.Coef})
		}
	}
	for j := 0; j < m.NumVars(); j++ {
		if !isZero(m.obj[j]) {
			fmt.Fprintf(bw, "    %s  COST  %.17g\n", names[j], m.obj[j])
		}
		for _, t := range byCol[j] {
			fmt.Fprintf(bw, "    %s  R%d  %.17g\n", names[j], t.Var, t.Coef)
		}
	}
	fmt.Fprintf(bw, "RHS\n")
	for i, r := range m.rows {
		if !isZero(r.rhs) {
			fmt.Fprintf(bw, "    RHS1  R%d  %.17g\n", i, r.rhs)
		}
	}
	fmt.Fprintf(bw, "BOUNDS\n")
	for j := 0; j < m.NumVars(); j++ {
		lo, hi := m.lo[j], m.hi[j]
		switch {
		case isZero(lo) && math.IsInf(hi, 1):
			// MPS default; nothing to write.
		case sameFloat(lo, hi):
			fmt.Fprintf(bw, " FX BND1  %s  %.17g\n", names[j], lo)
		default:
			if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
				fmt.Fprintf(bw, " FR BND1  %s\n", names[j])
				continue
			}
			if math.IsInf(lo, -1) {
				fmt.Fprintf(bw, " MI BND1  %s\n", names[j])
			} else if !isZero(lo) {
				fmt.Fprintf(bw, " LO BND1  %s  %.17g\n", names[j], lo)
			}
			if !math.IsInf(hi, 1) {
				fmt.Fprintf(bw, " UP BND1  %s  %.17g\n", names[j], hi)
			}
		}
	}
	fmt.Fprintf(bw, "ENDATA\n")
	return bw.Flush()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}
