package lp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements a reader and writer for the subset of the lp_solve
// LP text format that the tooling needs: an objective line ("min:" or
// "max:"), labelled constraints with <=, >=, or =, and linear expressions
// on both sides. The paper's experiments used PyLPSolve, so shipping the
// same interchange format keeps the CLI familiar:
//
//	/* cost of a tiny mechanism */
//	min: 2 r01 + r10;
//	sum0: r00 + r10 = 1;
//	dp0:  r00 - 0.5 r01 >= 0;
//
// Variables are declared implicitly by use and are non-negative.

type token struct {
	kind tokenKind
	text string
	num  float64
}

type tokenKind int

const (
	tokNum tokenKind = iota
	tokIdent
	tokPlus
	tokMinus
	tokStar
	tokLE
	tokGE
	tokEQ
	tokColon
	tokSemi
)

func lexLP(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("lp: unterminated comment: %w", ErrBadModel)
			}
			i += end + 4
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '+':
			toks = append(toks, token{kind: tokPlus})
			i++
		case c == '-':
			toks = append(toks, token{kind: tokMinus})
			i++
		case c == '*':
			toks = append(toks, token{kind: tokStar})
			i++
		case c == ':':
			toks = append(toks, token{kind: tokColon})
			i++
		case c == ';':
			toks = append(toks, token{kind: tokSemi})
			i++
		case c == '<' || c == '>' || c == '=':
			op := string(c)
			i++
			if i < len(src) && src[i] == '=' {
				i++
			}
			switch op {
			case "<":
				toks = append(toks, token{kind: tokLE})
			case ">":
				toks = append(toks, token{kind: tokGE})
			default:
				toks = append(toks, token{kind: tokEQ})
			}
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			v, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("lp: bad number %q: %w", src[i:j], ErrBadModel)
			}
			toks = append(toks, token{kind: tokNum, num: v})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: src[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("lp: unexpected character %q: %w", string(c), ErrBadModel)
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '[' || c == ']' || c == '.'
}

// linExpr is a parsed linear expression: coefficient per variable name
// plus a constant.
type linExpr struct {
	coeffs map[string]float64
	con    float64
}

// parseExpr consumes tokens until one of the stop kinds, returning the
// expression and the index of the stop token.
func parseExpr(toks []token, i int, stop map[tokenKind]bool) (linExpr, int, error) {
	e := linExpr{coeffs: map[string]float64{}}
	sign := 1.0
	pendingCoeff := 1.0
	haveCoeff := false
	flush := func() {
		if haveCoeff {
			e.con += sign * pendingCoeff
			pendingCoeff, haveCoeff, sign = 1, false, 1
		}
	}
	for i < len(toks) {
		t := toks[i]
		if stop[t.kind] {
			flush()
			return e, i, nil
		}
		switch t.kind {
		case tokPlus:
			flush()
			i++
		case tokMinus:
			flush()
			sign = -sign
			i++
		case tokNum:
			if haveCoeff {
				pendingCoeff *= t.num
			} else {
				pendingCoeff = t.num
				haveCoeff = true
			}
			i++
		case tokStar:
			i++
		case tokIdent:
			coeff := sign
			if haveCoeff {
				coeff = sign * pendingCoeff
			}
			e.coeffs[t.text] += coeff
			pendingCoeff, haveCoeff, sign = 1, false, 1
			i++
		default:
			return e, i, fmt.Errorf("lp: unexpected token in expression: %w", ErrBadModel)
		}
	}
	flush()
	return e, i, nil
}

// ParseLP parses lp_solve-style text into a Model. Variables are created
// in order of first appearance.
func ParseLP(src string) (*Model, error) {
	toks, err := lexLP(src)
	if err != nil {
		return nil, err
	}
	m := NewModel("lp", Minimize)
	vars := map[string]int{}
	varOf := func(name string) int {
		if v, ok := vars[name]; ok {
			return v
		}
		v := m.AddVariable(name)
		vars[name] = v
		return v
	}

	i := 0
	seenObjective := false
	for i < len(toks) {
		// Optional "label:" prefix; "min"/"max" labels start the objective.
		label := ""
		if toks[i].kind == tokIdent && i+1 < len(toks) && toks[i+1].kind == tokColon {
			label = toks[i].text
			i += 2
		}
		low := strings.ToLower(label)
		if low == "min" || low == "max" || low == "minimize" || low == "maximize" || low == "minimise" || low == "maximise" {
			if seenObjective {
				return nil, fmt.Errorf("lp: duplicate objective: %w", ErrBadModel)
			}
			seenObjective = true
			if strings.HasPrefix(low, "max") {
				m.sense = Maximize
			}
			expr, j, err := parseExpr(toks, i, map[tokenKind]bool{tokSemi: true})
			if err != nil {
				return nil, err
			}
			if j >= len(toks) || toks[j].kind != tokSemi {
				return nil, fmt.Errorf("lp: objective missing ';': %w", ErrBadModel)
			}
			i = j + 1
			for name, c := range expr.coeffs {
				if err := m.SetObjective(varOf(name), c); err != nil {
					return nil, err
				}
			}
			continue
		}

		// Constraint: expr OP expr ;
		stops := map[tokenKind]bool{tokLE: true, tokGE: true, tokEQ: true}
		lhs, j, err := parseExpr(toks, i, stops)
		if err != nil {
			return nil, err
		}
		if j >= len(toks) {
			return nil, fmt.Errorf("lp: constraint %q missing comparison: %w", label, ErrBadModel)
		}
		var op Op
		switch toks[j].kind {
		case tokLE:
			op = LE
		case tokGE:
			op = GE
		case tokEQ:
			op = EQ
		default:
			return nil, fmt.Errorf("lp: constraint %q missing comparison: %w", label, ErrBadModel)
		}
		rhs, k, err := parseExpr(toks, j+1, map[tokenKind]bool{tokSemi: true})
		if err != nil {
			return nil, err
		}
		if k >= len(toks) || toks[k].kind != tokSemi {
			return nil, fmt.Errorf("lp: constraint %q missing ';': %w", label, ErrBadModel)
		}
		i = k + 1

		// Move variables left, constants right.
		terms := make([]Term, 0, len(lhs.coeffs)+len(rhs.coeffs))
		merged := map[string]float64{}
		for name, c := range lhs.coeffs {
			merged[name] += c
		}
		for name, c := range rhs.coeffs {
			merged[name] -= c
		}
		names := make([]string, 0, len(merged))
		for name := range merged {
			names = append(names, name)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("lp: constraint %q has no variables: %w", label, ErrBadModel)
		}
		sort.Strings(names)
		for _, name := range names {
			terms = append(terms, Term{Var: varOf(name), Coeff: merged[name]})
		}
		if _, err := m.AddConstraint(label, terms, op, rhs.con-lhs.con); err != nil {
			return nil, err
		}
	}
	if !seenObjective {
		return nil, fmt.Errorf("lp: no objective found: %w", ErrBadModel)
	}
	return m, nil
}

// WriteLP renders the model in the same lp_solve-style format accepted by
// ParseLP.
func (m *Model) WriteLP() string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* %s */\n", m.name)
	b.WriteString(m.sense.String())
	b.WriteString(":")
	wrote := false
	for v, c := range m.obj {
		if c == 0 {
			continue
		}
		writeTerm(&b, c, m.varNames[v], !wrote)
		wrote = true
	}
	if !wrote {
		b.WriteString(" 0 " + m.varNames[0])
	}
	b.WriteString(";\n")
	for _, c := range m.cons {
		fmt.Fprintf(&b, "%s:", c.Name)
		for i, t := range c.Terms {
			writeTerm(&b, t.Coeff, m.varNames[t.Var], i == 0)
		}
		if len(c.Terms) == 0 {
			b.WriteString(" 0")
		}
		fmt.Fprintf(&b, " %s %g;\n", c.Op, c.RHS)
	}
	return b.String()
}

func writeTerm(b *strings.Builder, coeff float64, name string, first bool) {
	switch {
	case coeff == 1:
		if first {
			fmt.Fprintf(b, " %s", name)
		} else {
			fmt.Fprintf(b, " + %s", name)
		}
	case coeff == -1:
		fmt.Fprintf(b, " - %s", name)
	case coeff >= 0 && !first:
		fmt.Fprintf(b, " + %g %s", coeff, name)
	default:
		fmt.Fprintf(b, " %g %s", coeff, name)
	}
}
