// Package query is a small declarative front end over the PROSPECTOR
// planners, in the spirit of the TAG/TinyDB query interfaces the paper
// builds on. Queries look like:
//
//	SELECT TOP 8 FROM sensors BUDGET 30% USING LP+LF
//	SELECT TOP 5 FROM sensors EXACT
//	SELECT TOP 10 FROM sensors WITH PROOF BUDGET 900mJ
//	SELECT * FROM sensors WHERE value > 55 BUDGET 25% USING LP-LF
//	SELECT TOP 8 FROM sensors BUDGET 30% SAMPLES 20
//
// Parse produces a Query; Engine binds it to a network plus a window
// of observed epochs and executes it.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokWord
	tokNumber
	tokPercent
	tokStar
	tokGT
	tokLT
	tokGE
	tokLE
	tokEQ
)

type token struct {
	kind tokKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokNumber:
		return fmt.Sprintf("number %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex tokenizes a query string. Words are case-insensitive; "LP+LF"
// and "LP-LF" lex as single words. On a lexical error it still returns
// the tokens before the offending text, ended by tokEOF, so that Parse
// can report whichever error comes first in the query.
func lex(s string) ([]token, error) {
	var toks []token
	fail := func(pos int, err error) ([]token, error) {
		return append(toks, token{kind: tokEOF, pos: pos}), err
	}
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '*':
			toks = append(toks, token{kind: tokStar, text: "*", pos: i})
			i++
		case c == '%':
			toks = append(toks, token{kind: tokPercent, text: "%", pos: i})
			i++
		case c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{kind: tokGE, text: ">=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokGT, text: ">", pos: i})
				i++
			}
		case c == '<':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, token{kind: tokLE, text: "<=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokLT, text: "<", pos: i})
				i++
			}
		case c == '=':
			toks = append(toks, token{kind: tokEQ, text: "=", pos: i})
			i++
		case unicode.IsDigit(c) || c == '.' || (c == '-' && i+1 < len(s) && unicode.IsDigit(rune(s[i+1]))):
			start := i
			if c == '-' {
				i++
			}
			dots := 0
			for i < len(s) && (unicode.IsDigit(rune(s[i])) || s[i] == '.') {
				if s[i] == '.' {
					dots++
				}
				i++
			}
			text := s[start:i]
			var num float64
			if _, err := fmt.Sscanf(text, "%g", &num); dots > 1 || err != nil {
				return fail(start, fmt.Errorf("query: malformed number %q at offset %d", text, start))
			}
			// A number may carry a unit suffix like "900mJ".
			toks = append(toks, token{kind: tokNumber, text: text, num: num, pos: start})
		case unicode.IsLetter(c):
			start := i
			for i < len(s) && (unicode.IsLetter(rune(s[i])) || unicode.IsDigit(rune(s[i])) ||
				s[i] == '+' || s[i] == '-' || s[i] == '_') {
				i++
			}
			toks = append(toks, token{kind: tokWord, text: strings.ToUpper(s[start:i]), pos: start})
		default:
			return fail(i, fmt.Errorf("query: unexpected character %q at offset %d", c, i))
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(s)})
	return toks, nil
}
