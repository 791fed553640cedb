package report

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := &Table{
		Title: "T",
		Cols:  []string{"Name", "Value"},
	}
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 123456)
	tb.AddSeparator()
	tb.AddRow("avg", 2.5)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"T\n", "Name", "Value", "a-much-longer-name", "123456", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// All data lines should be equally wide-ish (aligned columns).
	var dataLines []string
	for _, l := range lines {
		if strings.Contains(l, "short") || strings.Contains(l, "longer") {
			dataLines = append(dataLines, l)
		}
	}
	if len(dataLines) != 2 {
		t.Fatalf("data lines = %d", len(dataLines))
	}
}

func TestNoteWrap(t *testing.T) {
	tb := &Table{
		Cols: []string{"A"},
		Note: strings.Repeat("word ", 60),
	}
	tb.AddRow("x")
	var sb strings.Builder
	tb.Render(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if len(line) > 115 {
			t.Fatalf("line too long (%d): %q", len(line), line)
		}
	}
}

func TestIsNumeric(t *testing.T) {
	yes := []string{"1", "1.5", "-3", "+2", "95.1%", "1.1e9", "0x10"}
	no := []string{"", "name", "1.2.3", "12a", "b12"}
	for _, s := range yes {
		if !isNumeric(s) {
			t.Errorf("%q should be numeric", s)
		}
	}
	for _, s := range no {
		if isNumeric(s) {
			t.Errorf("%q should not be numeric", s)
		}
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.123))
	}
	if Ratio(1.005) != "1.00" && Ratio(1.005) != "1.01" {
		t.Fatalf("Ratio = %q", Ratio(1.005))
	}
	cases := map[uint64]string{
		5:             "5",
		9_999:         "9999",
		50_000:        "50.0e3",
		3_200_000:     "3.2e6",
		2_100_000_000: "2.1e9",
	}
	for v, want := range cases {
		if got := SI(v); got != want {
			t.Errorf("SI(%d) = %q, want %q", v, got, want)
		}
	}
}

// The fmt-based formatting Table, Pct, Ratio and SI replaced, kept as the
// reference they must match byte for byte.

func refAddRow(t *Table, vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func refRender(t *Table, w io.Writer) {
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
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", min(total, 110)))
	}
	for i, c := range t.Cols {
		fmt.Fprintf(w, "%-*s", widths[i]+2, c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", min(total, 110)))
	for _, r := range t.Rows {
		if r == nil {
			fmt.Fprintln(w, strings.Repeat("-", min(total, 110)))
			continue
		}
		for i, v := range r {
			if i >= len(widths) {
				break
			}
			if isNumeric(v) {
				fmt.Fprintf(w, "%*s  ", widths[i], v)
			} else {
				fmt.Fprintf(w, "%-*s  ", widths[i], v)
			}
		}
		fmt.Fprintln(w)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "\n%s\n", refWrap(t.Note, 100))
	}
	fmt.Fprintln(w)
}

func refWrap(s string, width int) string {
	words := strings.Fields(s)
	var sb strings.Builder
	line := 0
	for i, w := range words {
		if line > 0 && line+1+len(w) > width {
			sb.WriteByte('\n')
			line = 0
		} else if i > 0 {
			sb.WriteByte(' ')
			line++
		}
		sb.WriteString(w)
		line += len(w)
	}
	return sb.String()
}

func refPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

func refRatio(f float64) string { return fmt.Sprintf("%.2f", f) }

func refSI(v uint64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fe9", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fe6", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fe3", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// randText draws words of letters, digits and signs, so some look
// numeric, joined by single or repeated spaces.
func randText(rng *rand.Rand, maxWords, maxWord int) string {
	chars := []rune("abcxyzXYZ0123456789.-+%e_é")
	var sb strings.Builder
	for n := rng.Intn(maxWords + 1); n > 0; n-- {
		if sb.Len() > 0 {
			sb.WriteString(strings.Repeat(" ", 1+rng.Intn(2)))
		}
		for k := 1 + rng.Intn(maxWord); k > 0; k-- {
			sb.WriteRune(chars[rng.Intn(len(chars))])
		}
	}
	return sb.String()
}

// randFloat draws magnitudes from tiny to huge, both signs, zeros, NaN
// and the infinities.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return math.Copysign(0, float64(1-2*rng.Intn(2)))
	case 3:
		return float64(rng.Intn(2000)) / 1000 // rounding ties
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-12))
}

func randUint(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return math.MaxUint64 - uint64(rng.Intn(3))
	case 1:
		return uint64(rng.Intn(20_000))
	}
	return rng.Uint64() >> rng.Intn(64)
}

func randCell(rng *rand.Rand) interface{} {
	switch rng.Intn(12) {
	case 0:
		return rng.Int() - rng.Int()
	case 1:
		return -rng.Int63() >> rng.Intn(63)
	case 2:
		return randUint(rng)
	case 3:
		return randFloat(rng)
	case 4:
		return ""
	case 5:
		return Pct(randFloat(rng))
	case 6:
		return Ratio(randFloat(rng))
	case 7:
		return SI(randUint(rng))
	case 8:
		return int32(rng.Intn(100) - 50) // a type formatted by %v
	case 9:
		return rng.Intn(2) == 0
	}
	return randText(rng, 3, 8)
}

// TestRenderMatchesReference: over seeded random tables, the strconv
// cells and the one-buffer render produce the reference's bytes.
func TestRenderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cols []string
		for n := 1 + rng.Intn(16); n > 0; n-- {
			cols = append(cols, randText(rng, 2, 10))
		}
		got := &Table{Title: randText(rng, 30, 12), Note: randText(rng, 80, 30), Cols: cols}
		want := &Table{Title: got.Title, Note: got.Note, Cols: cols}
		for n := rng.Intn(20); n > 0; n-- {
			if rng.Intn(6) == 0 {
				got.AddSeparator()
				want.AddSeparator()
				continue
			}
			vals := make([]interface{}, rng.Intn(len(cols)+3))
			for i := range vals {
				vals[i] = randCell(rng)
			}
			got.AddRow(vals...)
			refAddRow(want, vals...)
		}
		var gb, wb bytes.Buffer
		got.Render(&gb)
		refRender(want, &wb)
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("seed %d: render differs from the reference\n got:\n%s\nwant:\n%s", seed, gb.Bytes(), wb.Bytes())
		}
	}
}

func TestFormattersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		f, v := randFloat(rng), randUint(rng)
		if got, want := Pct(f), refPct(f); got != want {
			t.Fatalf("Pct(%v) = %q, reference %q", f, got, want)
		}
		if got, want := Ratio(f), refRatio(f); got != want {
			t.Fatalf("Ratio(%v) = %q, reference %q", f, got, want)
		}
		if got, want := SI(v), refSI(v); got != want {
			t.Fatalf("SI(%d) = %q, reference %q", v, got, want)
		}
	}
	for _, v := range []uint64{9_999, 10_000, 999_999, 1_000_000, 999_999_999, 1_000_000_000, math.MaxUint64} {
		if got, want := SI(v), refSI(v); got != want {
			t.Fatalf("SI(%d) = %q, reference %q", v, got, want)
		}
	}
}

// TestAppendMatchesRender: over TestRenderMatchesReference's seeded
// tables, Append onto a non-empty buffer keeps the prefix and appends
// exactly Render's bytes.
func TestAppendMatchesRender(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		// The draws of TestRenderMatchesReference, for its got table.
		rng := rand.New(rand.NewSource(seed))
		var cols []string
		for n := 1 + rng.Intn(16); n > 0; n-- {
			cols = append(cols, randText(rng, 2, 10))
		}
		tb := &Table{Title: randText(rng, 30, 12), Note: randText(rng, 80, 30), Cols: cols}
		for n := rng.Intn(20); n > 0; n-- {
			if rng.Intn(6) == 0 {
				tb.AddSeparator()
				continue
			}
			vals := make([]interface{}, rng.Intn(len(cols)+3))
			for i := range vals {
				vals[i] = randCell(rng)
			}
			tb.AddRow(vals...)
		}
		var want bytes.Buffer
		tb.Render(&want)
		prefix := []byte(randText(rng, 5, 10) + "\n")
		got := tb.Append(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("seed %d: Append after %q gave\n%s\nRender gave\n%s", seed, prefix, got, want.Bytes())
		}
	}
}
