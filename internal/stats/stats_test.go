package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("degenerate cases")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("minmax = %v %v", min, max)
	}
	if a, b := MinMax(nil); a != 0 || b != 0 {
		t.Error("empty minmax")
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// y = 3 x^-2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 / (x * x)
	}
	slope, c := FitPowerLaw(xs, ys)
	if math.Abs(slope+2) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Errorf("slope=%v c=%v", slope, c)
	}
}

func TestFitPowerLawNoisy(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	ys := []float64{100, 52, 24, 13, 6.2} // roughly x^-1
	slope, _ := FitPowerLaw(xs, ys)
	if slope > -0.8 || slope < -1.2 {
		t.Errorf("slope = %v, want ~-1", slope)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if s, c := FitPowerLaw([]float64{1}, []float64{1}); s != 0 || c != 0 {
		t.Error("single point should give 0,0")
	}
	if s, _ := FitPowerLaw([]float64{-1, 0, 2}, []float64{1, 1, 1}); s != 0 {
		// Only one usable point remains.
		t.Error("nonpositive points should be skipped")
	}
	if s, _ := FitPowerLaw([]float64{5, 5, 5}, []float64{1, 2, 3}); s != 0 {
		t.Error("zero x-variance should give 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "k", "rounds")
	tb.AddRow("2", "100")
	tb.AddRow("16", "7")
	tb.AddNote("slope %.1f", -2.0)
	out := tb.Render()
	for _, want := range []string{"## demo", "k", "rounds", "16", "slope -2.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Short rows padded.
	tb.AddRow("x")
	if got := tb.Rows[len(tb.Rows)-1]; len(got) != 2 {
		t.Error("row not padded")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("1,5", `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"1,5"`) || !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("csv escaping broken: %s", csv)
	}
}

func TestFormatters(t *testing.T) {
	if F(0.000001) != "1.00e-06" {
		t.Errorf("F small = %s", F(0.000001))
	}
	if F(3.14159) != "3.14" {
		t.Errorf("F mid = %s", F(3.14159))
	}
	if F(1234.5) != "1234.5" {
		t.Errorf("F large = %s", F(1234.5))
	}
	if I(42) != "42" || I(int64(7)) != "7" {
		t.Error("I formatting")
	}
}
