package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"targetedattacks/internal/core"
)

func TestTableAddRowValidates(t *testing.T) {
	tb := &Table{Title: "t", Columns: []string{"a", "b"}}
	if err := tb.AddRow("1"); err == nil {
		t.Error("short row: want error")
	}
	if err := tb.AddRow("1", "2"); err != nil {
		t.Error(err)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"x", "value"}, Note: "a note"}
	if err := tb.AddRow("1", "2.5"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "x", "value", "2.5", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x,value\n1,2.5\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestFigureValidation(t *testing.T) {
	f := &Figure{Title: "f"}
	if err := f.AddSeries(Series{Name: "bad", X: []float64{1}, Y: nil}); err == nil {
		t.Error("ragged series: want error")
	}
	var buf bytes.Buffer
	if err := f.RenderASCII(&buf, 40, 10); err == nil {
		t.Error("empty figure: want error")
	}
	if err := f.RenderASCII(&buf, 2, 2); err == nil {
		t.Error("tiny plot: want error")
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{Title: "curve", XLabel: "m", YLabel: "p", Note: "n"}
	if err := f.AddSeries(Series{Name: "s1", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSeries(Series{Name: "s2", X: []float64{0, 1, 2}, Y: []float64{4, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.RenderASCII(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"curve", "s1", "s2", "*", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "series,x,y\n") {
		t.Errorf("CSV header wrong: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "s1,2,4") {
		t.Errorf("CSV missing data: %q", buf.String())
	}
}

func TestFigureConstantSeries(t *testing.T) {
	// Degenerate ranges (all x equal, all y equal) must not divide by 0.
	f := &Figure{Title: "flat"}
	if err := f.AddSeries(Series{Name: "s", X: []float64{1, 1}, Y: []float64{2, 2}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.RenderASCII(&buf, 20, 5); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Census(t *testing.T) {
	tb, err := Figure1(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"288", "81", "135"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Figure1 missing %q", want)
		}
	}
	if _, err := Figure1(0, 7); err == nil {
		t.Error("bad C: want error")
	}
}

func TestFigure2(t *testing.T) {
	tb, err := Figure2(context.Background(), nil, Figure2Config{Ks: []int{1, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	if _, err := Figure2(context.Background(), nil, Figure2Config{}); err == nil {
		t.Error("empty Ks: want error")
	}
	// Row-sum deviations must be tiny.
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[3], "0.00e+00") && !strings.Contains(row[3], "e-") {
			t.Errorf("row-sum deviation suspicious: %v", row)
		}
	}
}

func TestFigure3SmallGrid(t *testing.T) {
	cfg := Figure3Config{
		Mus:           []float64{0, 0.2},
		Ds:            []float64{0.9},
		Ks:            []int{1},
		Distributions: []core.InitialDistribution{core.DistributionDelta},
	}
	tb, err := Figure3(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// µ=0 row must read E(T_S)=12, E(T_P)=0.
	if tb.Rows[0][4] != "12.0000" || tb.Rows[0][5] != "0" {
		t.Errorf("µ=0 row = %v", tb.Rows[0])
	}
	for name, bad := range map[string]func(*Figure3Config){
		"Mus":           func(c *Figure3Config) { c.Mus = nil },
		"Ds":            func(c *Figure3Config) { c.Ds = nil },
		"Ks":            func(c *Figure3Config) { c.Ks = nil },
		"Distributions": func(c *Figure3Config) { c.Distributions = nil },
	} {
		c := cfg
		bad(&c)
		if _, err := Figure3(context.Background(), nil, c); err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("empty %s: err = %v, want a non-empty-axis error", name, err)
		}
	}
}

func TestFigure4SmallGrid(t *testing.T) {
	cfg := Figure4Config{
		Mus:           []float64{0},
		Ds:            []float64{0.9},
		Distributions: []core.InitialDistribution{core.DistributionDelta},
	}
	tb, err := Figure4(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][3] != "0.5714" || tb.Rows[0][4] != "0.4286" {
		t.Errorf("µ=0 absorption row = %v, want 0.5714/0.4286", tb.Rows[0])
	}
	for name, bad := range map[string]func(*Figure4Config){
		"Mus":           func(c *Figure4Config) { c.Mus = nil },
		"Ds":            func(c *Figure4Config) { c.Ds = nil },
		"Distributions": func(c *Figure4Config) { c.Distributions = nil },
	} {
		c := cfg
		bad(&c)
		if _, err := Figure4(context.Background(), nil, c); err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("empty %s: err = %v, want a non-empty-axis error", name, err)
		}
	}
}

func TestFigure5Small(t *testing.T) {
	cfg := Figure5Config{
		Ns:        []int{50},
		Ds:        []float64{0.9},
		Mu:        0.25,
		MaxEvents: 2000,
		Samples:   10,
	}
	safe, polluted, err := Figure5(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(safe.Series) != 1 || len(polluted.Series) != 1 {
		t.Fatalf("series counts: %d safe, %d polluted", len(safe.Series), len(polluted.Series))
	}
	s := safe.Series[0]
	if s.Y[0] != 1 {
		t.Errorf("safe proportion at m=0 is %v, want 1", s.Y[0])
	}
	if last := s.Y[len(s.Y)-1]; last >= s.Y[0] {
		t.Errorf("safe proportion did not decay: %v → %v", s.Y[0], last)
	}
	if !strings.Contains(s.Name, "L=") {
		t.Errorf("series name %q missing lifetime annotation", s.Name)
	}
	if _, _, err := Figure5(context.Background(), nil, Figure5Config{Ns: []int{1}, Ds: []float64{0.5}, MaxEvents: 0, Samples: 1}); err == nil {
		t.Error("MaxEvents=0: want error")
	}
}

func TestTable1Small(t *testing.T) {
	tb, err := Table1(context.Background(), nil, Table1Config{Mus: []float64{0, 0.2}, Ds: []float64{0.99}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][2] != "12.0000" {
		t.Errorf("µ=0: E(T_S) cell = %q", tb.Rows[0][2])
	}
	// µ=20%, d=0.99 must read ≈ 699.7 (paper Table I).
	if !strings.HasPrefix(tb.Rows[1][3], "699.7") {
		t.Errorf("µ=20%% d=0.99: E(T_P) cell = %q, want 699.7…", tb.Rows[1][3])
	}
	for name, cfg := range map[string]Table1Config{
		"Mus": {Ds: []float64{0.99}},
		"Ds":  {Mus: []float64{0.2}},
	} {
		if _, err := Table1(context.Background(), nil, cfg); err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("empty %s: err = %v, want a non-empty-axis error", name, err)
		}
	}
}

func TestTable2Small(t *testing.T) {
	tb, err := Table2(context.Background(), nil, DefaultTable2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if len(tb.Columns) != 5 {
		t.Fatalf("columns = %d, want 5", len(tb.Columns))
	}
	for name, cfg := range map[string]Table2Config{
		"Sojourns=0": {Mus: []float64{0}, D: 0.9, Sojourns: 0},
		"empty Mus":  {D: 0.9, Sojourns: 2},
	} {
		if _, err := Table2(context.Background(), nil, cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestAblationK(t *testing.T) {
	tb, err := AblationK(context.Background(), nil, AblationKConfig{Mus: []float64{0.2}, D: 0.9, Nu: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (k=1…7)", len(tb.Rows))
	}
	for name, cfg := range map[string]AblationKConfig{
		"Mus": {D: 0.9, Nu: 0.1},
	} {
		if _, err := AblationK(context.Background(), nil, cfg); err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("empty %s: err = %v, want a non-empty-axis error", name, err)
		}
	}
}

func TestAblationNu(t *testing.T) {
	tb, err := AblationNu(context.Background(), nil, AblationNuConfig{Nus: []float64{0.05, 0.5}, Mu: 0.3, D: 0.9, Ks: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for name, cfg := range map[string]AblationNuConfig{
		"Nus": {Mu: 0.3, D: 0.9, Ks: []int{7}},
		"Ks":  {Nus: []float64{0.1}, Mu: 0.3, D: 0.9},
	} {
		if _, err := AblationNu(context.Background(), nil, cfg); err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Errorf("empty %s: err = %v, want a non-empty-axis error", name, err)
		}
	}
}

func TestValidationSmall(t *testing.T) {
	cfg := ValidationConfig{
		Points:   []core.Params{{C: 7, Delta: 7, Mu: 0.1, D: 0.5, K: 1, Nu: 0.1}},
		Runs:     2000,
		MaxSteps: 100000,
		Seed:     1,
	}
	tb, err := Validation(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
}

func TestDefaultConfigsMatchPaperShapes(t *testing.T) {
	f3 := DefaultFigure3Config()
	if len(f3.Mus) != 7 || len(f3.Ds) != 4 || len(f3.Ks) != 2 || len(f3.Distributions) != 2 {
		t.Errorf("Figure3 default grid %dx%dx%dx%d, want 7x4x2x2",
			len(f3.Mus), len(f3.Ds), len(f3.Ks), len(f3.Distributions))
	}
	f5 := DefaultFigure5Config()
	if f5.MaxEvents != 100000 || len(f5.Ns) != 2 || len(f5.Ds) != 2 {
		t.Errorf("Figure5 default config %+v does not match the paper axes", f5)
	}
	t1 := DefaultTable1Config()
	if len(t1.Mus)*len(t1.Ds) != 12 {
		t.Errorf("Table1 default grid has %d cells, want 12", len(t1.Mus)*len(t1.Ds))
	}
}

func TestSystemSimSmall(t *testing.T) {
	cfg := SystemSimConfig{
		Mus:              []float64{0, 0.3},
		Ds:               []float64{0.9},
		Events:           2000,
		InitialLabelBits: 2,
		Checkpoints:      4,
		Seed:             1,
	}
	tb, err := SystemSim(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// µ=0 row must report zero pollution.
	if tb.Rows[0][2] != "0" || tb.Rows[0][3] != "0" {
		t.Errorf("µ=0 system row = %v, want zero pollution", tb.Rows[0])
	}
	if _, err := SystemSim(context.Background(), nil, SystemSimConfig{Events: 0, Checkpoints: 1}); err == nil {
		t.Error("Events=0: want error")
	}
}

func TestLookupSmall(t *testing.T) {
	cfg := LookupConfig{
		Mus:              []float64{0, 0.3},
		Ds:               []float64{0.9},
		Events:           1500,
		Trials:           100,
		Redundancy:       3,
		InitialLabelBits: 2,
		Seed:             1,
	}
	tb, err := Lookup(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// µ=0: availability must be exactly 1 on both columns.
	if tb.Rows[0][3] != "1.0000" || tb.Rows[0][4] != "1.0000" {
		t.Errorf("µ=0 lookup row = %v, want full availability", tb.Rows[0])
	}
	if _, err := Lookup(context.Background(), nil, LookupConfig{Trials: 0, Redundancy: 1}); err == nil {
		t.Error("Trials=0: want error")
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtFloat(0) != "0" {
		t.Error("fmtFloat(0)")
	}
	if fmtFloat(12.5) != "12.5000" {
		t.Errorf("fmtFloat(12.5) = %q", fmtFloat(12.5))
	}
	if s := fmtFloat(9.3e9); !strings.Contains(s, "e+09") {
		t.Errorf("fmtFloat(9.3e9) = %q", s)
	}
	if fmtPercent(0.25) != "25%" {
		t.Errorf("fmtPercent(0.25) = %q", fmtPercent(0.25))
	}
}
