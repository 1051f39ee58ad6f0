// Package trace provides reporting utilities shared by the paper's golden
// test (paper_test.go), the campaign's detection matrix and the
// command-line tools: aligned text tables (for regenerating the paper's
// Table I / Table II layouts) and the paper's number formats.
package trace

import (
	"fmt"
	"strings"
)

// Table renders rows of cells with aligned columns, in the style of the
// paper's result tables.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept and padded.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row built from formatted values.
func (t *Table) AddRowf(format string, args ...interface{}) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// Separator inserts a horizontal rule.
func (t *Table) Separator() {
	t.rows = append(t.rows, nil)
}

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	rule := func() {
		for i, w := range widths {
			if i > 0 {
				sb.WriteString("-+-")
			}
			sb.WriteString(strings.Repeat("-", w))
		}
		sb.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			if i > 0 {
				sb.WriteString(" | ")
			}
			c := ""
			if i < len(r) {
				c = r[i]
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		rule()
	}
	for _, r := range t.rows {
		if r == nil {
			rule()
			continue
		}
		writeRow(r)
	}
	return sb.String()
}

// Pct formats a ratio as a signed percentage with two decimals, matching
// the paper's "+13.43%" style.
func Pct(with, without float64) string {
	if without == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.2f%%", (with-without)/without*100)
}

// Comma formats an integer with thousands separators, as the paper's
// tables do (e.g. "12,895").
func Comma(v uint64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
