package dataset

import (
	"math"
	"math/rand"
	"testing"

	"dnnd/internal/metric"
)

func TestPresetsMatchTable1(t *testing.T) {
	// Table 1 of the paper: name, dims, entries, metric.
	want := []struct {
		name    string
		dim     int
		entries int
		kind    metric.Kind
	}{
		{"fashion-mnist", 784, 60000, metric.L2},
		{"glove-25", 25, 1183514, metric.Cosine},
		{"kosarak", 28, 74962, metric.Jaccard}, // dim = mean set size substitute
		{"mnist", 784, 60000, metric.L2},
		{"nytimes", 256, 290000, metric.Cosine},
		{"lastfm", 65, 292385, metric.Cosine},
		{"deep", 96, 1_000_000_000, metric.L2},
		{"bigann", 128, 1_000_000_000, metric.L2},
	}
	if len(Presets) != len(want) {
		t.Fatalf("%d presets, want %d", len(Presets), len(want))
	}
	for i, w := range want {
		p := Presets[i]
		if p.Name != w.name || p.PaperEntries != w.entries || p.Metric != w.kind {
			t.Errorf("preset %d = %+v, want %+v", i, p, w)
		}
		if p.Name != "kosarak" && p.Dim != w.dim {
			t.Errorf("preset %s dim = %d, want %d", p.Name, p.Dim, w.dim)
		}
	}
	if len(Small()) != 6 {
		t.Errorf("Small() = %d presets, want 6", len(Small()))
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("deep")
	if err != nil || p.Dim != 96 {
		t.Fatalf("ByName(deep) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestGistExtraPreset pins the float32-heavy anchor outside Table 1:
// ByName must resolve it (CLIs and the benchmark depend on that), it
// must generate valid high-dim float32 data, and it must NOT appear in
// Presets or Small(), which are Table 1's.
func TestGistExtraPreset(t *testing.T) {
	p, err := ByName("gist")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim != 960 || p.Elem != ElemFloat32 || p.Metric != metric.L2 {
		t.Fatalf("gist preset = %+v", p)
	}
	d := Generate(p, 50, 1)
	if len(d.F32) != 50 || len(d.F32[0]) != 960 {
		t.Fatalf("gist shape %dx%d", len(d.F32), len(d.F32[0]))
	}
	for _, q := range Presets {
		if q.Name == "gist" {
			t.Fatal("gist leaked into the Table 1 preset list")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("glove-25")
	a := Generate(p, 50, 7)
	b := Generate(p, 50, 7)
	for i := range a.F32 {
		for j := range a.F32[i] {
			if a.F32[i][j] != b.F32[i][j] {
				t.Fatalf("same seed diverged at [%d][%d]", i, j)
			}
		}
	}
	c := Generate(p, 50, 8)
	same := true
	for i := range a.F32 {
		for j := range a.F32[i] {
			if a.F32[i][j] != c.F32[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, p := range Presets {
		d := Generate(p, 80, 1)
		if d.Len() != 80 {
			t.Errorf("%s: Len = %d", p.Name, d.Len())
		}
		switch p.Elem {
		case ElemFloat32:
			if len(d.F32) != 80 || d.U8 != nil || d.U32 != nil {
				t.Errorf("%s: wrong slices populated", p.Name)
			}
			for _, v := range d.F32 {
				if len(v) != p.Dim {
					t.Errorf("%s: dim %d, want %d", p.Name, len(v), p.Dim)
				}
			}
		case ElemUint8:
			if len(d.U8) != 80 {
				t.Errorf("%s: wrong slices populated", p.Name)
			}
			for _, v := range d.U8 {
				if len(v) != p.Dim {
					t.Errorf("%s: dim %d, want %d", p.Name, len(v), p.Dim)
				}
			}
		case ElemUint32:
			if len(d.U32) != 80 {
				t.Errorf("%s: wrong slices populated", p.Name)
			}
			for _, set := range d.U32 {
				if len(set) < 2 {
					t.Errorf("%s: degenerate set of size %d", p.Name, len(set))
				}
				for j := 1; j < len(set); j++ {
					if set[j-1] >= set[j] {
						t.Fatalf("%s: set not strictly sorted", p.Name)
					}
				}
			}
		}
	}
}

func TestCosinePresetsAreUnitNorm(t *testing.T) {
	p, _ := ByName("nytimes")
	d := Generate(p, 30, 2)
	for i, v := range d.F32 {
		var s float64
		for _, x := range v {
			s += float64(x) * float64(x)
		}
		if math.Abs(math.Sqrt(s)-1) > 1e-3 {
			t.Fatalf("vector %d has norm %v, want 1", i, math.Sqrt(s))
		}
	}
}

func TestGenerateDefaultEntries(t *testing.T) {
	p, _ := ByName("kosarak")
	d := Generate(p, 0, 1)
	if d.Len() != p.DefaultEntries {
		t.Errorf("Len = %d, want DefaultEntries %d", d.Len(), p.DefaultEntries)
	}
}

func TestQueriesDifferFromBase(t *testing.T) {
	p, _ := ByName("deep")
	base := Generate(p, 40, 3)
	queries := GenerateQueries(p, 40, 3)
	if queries.Preset.Name != p.Name {
		t.Errorf("query preset name = %q", queries.Preset.Name)
	}
	diff := false
	for i := range base.F32 {
		for j := range base.F32[i] {
			if base.F32[i][j] != queries.F32[i][j] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("queries identical to base data")
	}
}

func TestGeneratorsAreClustered(t *testing.T) {
	// A mixture must have substantially smaller nearest-neighbor
	// distances than uniform data of the same scale; sanity-check that
	// points from the same generator cluster are close by comparing
	// mean pairwise distance vs mean NN distance.
	p, _ := ByName("deep")
	d := Generate(p, 300, 4)
	mean := 0.0
	nnMean := 0.0
	for i := 0; i < 100; i++ {
		best := math.Inf(1)
		sum := 0.0
		for j := 0; j < 300; j++ {
			if i == j {
				continue
			}
			dist := float64(metric.SquaredL2Float32(d.F32[i], d.F32[j]))
			sum += dist
			if dist < best {
				best = dist
			}
		}
		mean += sum / 299
		nnMean += best
	}
	if nnMean/100 > 0.25*(mean/100) {
		t.Errorf("data not clustered: nn mean %.2f vs mean %.2f", nnMean/100, mean/100)
	}
}

func TestGaussianMixtureDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	data := GaussianMixture(rng, 200, 5, 4, 10, 0.5)
	if len(data) != 200 || len(data[0]) != 5 {
		t.Fatalf("shape %dx%d", len(data), len(data[0]))
	}
	// Degenerate cluster count is clamped.
	data = GaussianMixture(rng, 10, 3, 0, 1, 0.1)
	if len(data) != 10 {
		t.Fatal("clusters=0 not clamped")
	}
}

func TestSphereMixtureUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := SphereMixture(rng, 100, 8, 5)
	for i, v := range data {
		var s float64
		for _, x := range v {
			s += float64(x) * float64(x)
		}
		if math.Abs(math.Sqrt(s)-1) > 1e-3 {
			t.Fatalf("vector %d norm %v", i, math.Sqrt(s))
		}
	}
	if len(SphereMixture(rng, 5, 4, 0)) != 5 {
		t.Fatal("clusters=0 not clamped")
	}
}

func TestQuantizedMixtureRange(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := QuantizedMixture(rng, 150, 6, 3)
	if len(data) != 150 {
		t.Fatal("wrong size")
	}
	for _, v := range data {
		if len(v) != 6 {
			t.Fatal("wrong dim")
		}
	}
}

func TestLowRankMixtureIntrinsicDim(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// latentDim > dim is clamped; latentDim < 1 is clamped.
	a := LowRankMixture(rng, 20, 4, 100, 2, 3, 1)
	if len(a) != 20 || len(a[0]) != 4 {
		t.Fatalf("clamped shape %dx%d", len(a), len(a[0]))
	}
	b := LowRankMixture(rng, 20, 4, 0, 0, 3, 1)
	if len(b) != 20 {
		t.Fatal("degenerate latent not clamped")
	}
	// Points from a rank-2 generator must lie (almost) in a 2-dim
	// subspace: verify via distances — any 4 points' Gram structure is
	// hard to test simply, so check instead that many coordinates are
	// strongly correlated: the rank of the data matrix is small.
	// Cheap proxy: distances in ambient space equal distances computed
	// from a fixed 2-dim projection would require the projection;
	// instead assert the generator is deterministic for a fixed rng
	// state and produces non-degenerate spread.
	var spread float64
	c := LowRankMixture(rand.New(rand.NewSource(7)), 50, 16, 2, 4, 4, 1)
	for i := 1; i < len(c); i++ {
		spread += float64(metric.SquaredL2Float32(c[0], c[i]))
	}
	if spread == 0 {
		t.Fatal("low-rank mixture collapsed to a point")
	}
}

func TestQuantizedLowRankMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	data := QuantizedLowRankMixture(rng, 80, 10, 4, 5, 4, 1)
	if len(data) != 80 || len(data[0]) != 10 {
		t.Fatalf("shape %dx%d", len(data), len(data[0]))
	}
	// Values must use a reasonable part of the byte range, not collapse.
	min, max := data[0][0], data[0][0]
	for _, v := range data {
		for _, x := range v {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
	}
	if max-min < 30 {
		t.Errorf("quantized range too narrow: [%d, %d]", min, max)
	}
}

func TestPowerLawItemsetsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sets := PowerLawItemsets(rng, 100, 5, 500, 10)
	if len(sets) != 100 {
		t.Fatal("wrong count")
	}
	totalSize := 0
	for _, s := range sets {
		totalSize += len(s)
		for j := 1; j < len(s); j++ {
			if s[j-1] >= s[j] {
				t.Fatal("set not strictly sorted")
			}
		}
	}
	mean := float64(totalSize) / 100
	if mean < 5 || mean > 20 {
		t.Errorf("mean set size %.1f far from requested 10", mean)
	}
	// Degenerate parameters are clamped.
	tiny := PowerLawItemsets(rng, 5, 0, 10, 0)
	if len(tiny) != 5 {
		t.Fatal("degenerate params not handled")
	}
}
