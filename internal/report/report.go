// Package report renders the experiment tables as aligned text, in the
// shape of the paper's Tables 1-5.
package report

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row. Integers print in decimal, floats with two
// decimals, and anything else but strings with fmt's %v.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case int:
			row[i] = strconv.Itoa(x)
		case int64:
			row[i] = strconv.FormatInt(x, 10)
		case uint64:
			row[i] = strconv.FormatUint(x, 10)
		case float64:
			row[i] = strconv.FormatFloat(x, 'f', 2, 64)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddSeparator appends a visual separator row.
func (t *Table) AddSeparator() {
	t.Rows = append(t.Rows, nil)
}

// Render builds the table in one buffer and writes it to w at once.
func (t *Table) Render(w io.Writer) { w.Write(t.Append(nil)) }

// Append appends the rendered table to b and returns the extended slice.
func (t *Table) Append(b []byte) []byte {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	rule := min(total, 110)
	b = slices.Grow(b, len(t.Title)+len(t.Note)+(total+1)*(len(t.Rows)+4))
	if t.Title != "" {
		b = append(b, t.Title...)
		b = append(b, '\n')
		b = appendRule(b, '=', rule)
	}
	for i, c := range t.Cols {
		b = appendPadded(b, c, widths[i]+2, false)
	}
	b = append(b, '\n')
	b = appendRule(b, '-', rule)
	for _, r := range t.Rows {
		if r == nil {
			b = appendRule(b, '-', rule)
			continue
		}
		for i, v := range r {
			if i >= len(widths) {
				break
			}
			// Right-align numeric-looking cells, left-align names.
			b = appendPadded(b, v, widths[i], isNumeric(v))
			b = append(b, "  "...)
		}
		b = append(b, '\n')
	}
	if t.Note != "" {
		b = append(b, '\n')
		b = appendWrapped(b, t.Note, 100)
		b = append(b, '\n')
	}
	return append(b, '\n')
}

// appendRule appends a line of n copies of c.
func appendRule(b []byte, c byte, n int) []byte {
	for range n {
		b = append(b, c)
	}
	return append(b, '\n')
}

// appendPadded appends s padded with spaces to width runes, on the left
// when right is set, as fmt's %*s and %-*s pad.
func appendPadded(b []byte, s string, width int, right bool) []byte {
	if !right {
		b = append(b, s...)
	}
	for pad := width - utf8.RuneCountInString(s); pad > 0; pad-- {
		b = append(b, ' ')
	}
	if right {
		b = append(b, s...)
	}
	return b
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	dots := 0
	for i, c := range s {
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && dots == 0:
			dots++
		case (c == '-' || c == '+') && i == 0:
		case c == '%' && i == len(s)-1:
		case c == 'e' || c == 'x':
		default:
			return false
		}
	}
	return true
}

// appendWrapped appends s with its words wrapped into lines of at most
// width bytes where the words allow.
func appendWrapped(b []byte, s string, width int) []byte {
	line := 0
	for i, w := range strings.Fields(s) {
		if line > 0 && line+1+len(w) > width {
			b = append(b, '\n')
			line = 0
		} else if i > 0 {
			b = append(b, ' ')
			line++
		}
		b = append(b, w...)
		line += len(w)
	}
	return b
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return strconv.FormatFloat(f*100, 'f', 1, 64) + "%" }

// Ratio formats a ratio with two decimals.
func Ratio(f float64) string { return strconv.FormatFloat(f, 'f', 2, 64) }

// SI formats large counts compactly (e.g. 1.1e9 style like the paper).
func SI(v uint64) string {
	switch {
	case v >= 1_000_000_000:
		return strconv.FormatFloat(float64(v)/1e9, 'f', 1, 64) + "e9"
	case v >= 1_000_000:
		return strconv.FormatFloat(float64(v)/1e6, 'f', 1, 64) + "e6"
	case v >= 10_000:
		return strconv.FormatFloat(float64(v)/1e3, 'f', 1, 64) + "e3"
	default:
		return strconv.FormatUint(v, 10)
	}
}
