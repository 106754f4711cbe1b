// Package dataset provides the evaluation datasets. The paper uses 8
// public ANN-benchmark datasets (Table 1); those files and scales are
// not available offline, so each is substituted by a seeded synthetic
// generator that matches its dimensionality, element type, distance
// metric, and clustered structure, at a configurable (scaled-down)
// cardinality. The presets carry the paper's original sizes so reports
// can show both.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dnnd/internal/metric"
)

// Elem identifies a preset's feature element type.
type Elem string

// Element kinds.
const (
	ElemFloat32 Elem = "float32"
	ElemUint8   Elem = "uint8"
	ElemUint32  Elem = "uint32" // sparse sorted sets (Jaccard)
)

// Preset describes one Table 1 dataset and its synthetic substitute.
type Preset struct {
	// Name is the dataset key used by CLIs and reports.
	Name string
	// Dim is the feature dimensionality (mean set size for Jaccard).
	Dim int
	// PaperEntries is the cardinality reported in Table 1.
	PaperEntries int
	// DefaultEntries is the scaled-down cardinality used here.
	DefaultEntries int
	// Metric is the similarity metric of Table 1.
	Metric metric.Kind
	// Elem is the element type (float32; uint8 for BigANN; uint32 sets
	// for Kosarak).
	Elem Elem
	// Clusters controls the synthetic mixture's cluster count.
	Clusters int
	// Billion marks the two billion-scale datasets used in Section 5.3.
	Billion bool
}

// Presets lists the 8 datasets of Table 1 in paper order.
var Presets = []Preset{
	{Name: "fashion-mnist", Dim: 784, PaperEntries: 60000, DefaultEntries: 4000, Metric: metric.L2, Elem: ElemFloat32, Clusters: 10},
	{Name: "glove-25", Dim: 25, PaperEntries: 1183514, DefaultEntries: 6000, Metric: metric.Cosine, Elem: ElemFloat32, Clusters: 40},
	{Name: "kosarak", Dim: 28, PaperEntries: 74962, DefaultEntries: 2500, Metric: metric.Jaccard, Elem: ElemUint32, Clusters: 25},
	{Name: "mnist", Dim: 784, PaperEntries: 60000, DefaultEntries: 4000, Metric: metric.L2, Elem: ElemFloat32, Clusters: 10},
	{Name: "nytimes", Dim: 256, PaperEntries: 290000, DefaultEntries: 4000, Metric: metric.Cosine, Elem: ElemFloat32, Clusters: 30},
	{Name: "lastfm", Dim: 65, PaperEntries: 292385, DefaultEntries: 4000, Metric: metric.Cosine, Elem: ElemFloat32, Clusters: 30},
	{Name: "deep", Dim: 96, PaperEntries: 1_000_000_000, DefaultEntries: 20000, Metric: metric.L2, Elem: ElemFloat32, Clusters: 64, Billion: true},
	{Name: "bigann", Dim: 128, PaperEntries: 1_000_000_000, DefaultEntries: 20000, Metric: metric.L2, Elem: ElemUint8, Clusters: 64, Billion: true},
}

// Extras lists supplementary anchor presets outside Table 1. "gist"
// is the float32-heavy anchor (the GIST1M shape: 960-dim float32
// descriptors under L2): exact float32 distances there cost ~7.5x a
// deep/96 evaluation, so it is the kernel-bound workload — the one
// where the distance kernel, not communication, sets the build and
// query cost.
var Extras = []Preset{
	{Name: "gist", Dim: 960, PaperEntries: 1_000_000, DefaultEntries: 4000, Metric: metric.L2, Elem: ElemFloat32, Clusters: 32},
}

// ByName returns the named preset, searching Table 1 then Extras.
func ByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range Extras {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("dataset: unknown preset %q", name)
}

// Small returns the six non-billion presets (the Section 5.2 set).
func Small() []Preset {
	var out []Preset
	for _, p := range Presets {
		if !p.Billion {
			out = append(out, p)
		}
	}
	return out
}

// Data is a generated dataset. Exactly one of F32, U8, U32 is non-nil,
// matching the preset's Elem.
type Data struct {
	Preset Preset
	F32    [][]float32
	U8     [][]uint8
	U32    [][]uint32
}

// Len returns the number of points.
func (d *Data) Len() int {
	switch d.Preset.Elem {
	case ElemFloat32:
		return len(d.F32)
	case ElemUint8:
		return len(d.U8)
	default:
		return len(d.U32)
	}
}

// Generate materializes n points of the preset's distribution (n <= 0
// uses DefaultEntries). The same (preset, n, seed) always produces the
// same data.
func Generate(p Preset, n int, seed int64) *Data {
	if n <= 0 {
		n = p.DefaultEntries
	}
	rng := rand.New(rand.NewSource(seed ^ int64(hashName(p.Name))))
	d := &Data{Preset: p}
	// Latent dimensionality: real embedding datasets concentrate near
	// a low-dimensional manifold; 12 latent dims with mildly separated
	// clusters keeps the k-NN graph navigable (connected) while still
	// rewarding cluster-aware search, like the public datasets do.
	const latent = 12
	switch p.Elem {
	case ElemFloat32:
		if p.Metric == metric.Cosine {
			d.F32 = LowRankMixture(rng, n, p.Dim, latent, p.Clusters, 4, 1)
			for _, v := range d.F32 {
				normalize(v)
			}
		} else {
			d.F32 = LowRankMixture(rng, n, p.Dim, latent, p.Clusters, 4, 1)
		}
	case ElemUint8:
		d.U8 = QuantizedLowRankMixture(rng, n, p.Dim, latent, p.Clusters, 4, 1)
	case ElemUint32:
		d.U32 = PowerLawItemsets(rng, n, p.Clusters, 2000, p.Dim)
	}
	return d
}

// GenerateQueries draws nq query points from the same distribution
// with an independent stream.
func GenerateQueries(p Preset, nq int, seed int64) *Data {
	q := p
	q.Name = p.Name + "-queries"
	q.Clusters = p.Clusters
	d := Generate(q, nq, seed+0x9e3779b9)
	d.Preset = p
	return d
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// LowRankMixture draws clustered points that lie near a latentDim-
// dimensional random subspace of R^dim: cluster centers live in the
// latent space (uniform in [0, sep)^latentDim), points get isotropic
// latent noise (spread), and a fixed random linear map lifts them to
// the ambient dimension. This matches the low intrinsic dimensionality
// of real embedding datasets (DEEP, MNIST features, ...), which is what
// makes graph-based ANN effective; fully isotropic high-dimensional
// mixtures would be unrealistically easy to separate and produce
// disconnected k-NN graphs.
func LowRankMixture(rng *rand.Rand, n, dim, latentDim, clusters int, sep, spread float64) [][]float32 {
	if latentDim < 1 {
		latentDim = 1
	}
	if latentDim > dim {
		latentDim = dim
	}
	if clusters < 1 {
		clusters = 1
	}
	proj := projection(rng, dim, latentDim)
	centers := make([][]float64, clusters)
	for c := range centers {
		v := make([]float64, latentDim)
		for j := range v {
			v[j] = rng.Float64() * sep
		}
		centers[c] = v
	}
	data := make([][]float32, n)
	latent := make([]float64, latentDim)
	for i := range data {
		c := centers[rng.Intn(clusters)]
		for j := range latent {
			latent[j] = c[j] + rng.NormFloat64()*spread
		}
		data[i] = lift(proj, latent, dim)
	}
	return data
}

// projection returns a dim x latent random matrix with N(0, 1/latent)
// entries (a Johnson-Lindenstrauss-style embedding).
func projection(rng *rand.Rand, dim, latent int) [][]float64 {
	inv := 1 / math.Sqrt(float64(latent))
	p := make([][]float64, dim)
	for i := range p {
		row := make([]float64, latent)
		for j := range row {
			row[j] = rng.NormFloat64() * inv
		}
		p[i] = row
	}
	return p
}

func lift(proj [][]float64, latent []float64, dim int) []float32 {
	out := make([]float32, dim)
	for i := 0; i < dim; i++ {
		var s float64
		row := proj[i]
		for j, z := range latent {
			s += row[j] * z
		}
		out[i] = float32(s)
	}
	return out
}

// QuantizedLowRankMixture is LowRankMixture quantized to uint8 (the
// BigANN element type): lifted coordinates are affinely mapped into the
// byte range and clamped.
func QuantizedLowRankMixture(rng *rand.Rand, n, dim, latentDim, clusters int, sep, spread float64) [][]uint8 {
	f := LowRankMixture(rng, n, dim, latentDim, clusters, sep, spread)
	out := make([][]uint8, n)
	scale := 255.0 / (sep * 1.6)
	for i, v := range f {
		q := make([]uint8, dim)
		for j, x := range v {
			y := 128 + float64(x)*scale
			if y < 0 {
				y = 0
			}
			if y > 255 {
				y = 255
			}
			q[j] = uint8(y)
		}
		out[i] = q
	}
	return out
}

func normalize(v []float32) {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		v[0] = 1
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for j := range v {
		v[j] *= inv
	}
}

// PowerLawItemsets draws sparse sorted uint32 sets (the Kosarak
// click-stream shape): items follow a power-law popularity, and each
// set mixes a cluster-specific pool with globally popular items.
// meanSize is the average set cardinality.
func PowerLawItemsets(rng *rand.Rand, n, clusters, universe, meanSize int) [][]uint32 {
	if clusters < 1 {
		clusters = 1
	}
	if meanSize < 2 {
		meanSize = 2
	}
	data := make([][]uint32, n)
	perCluster := universe / clusters
	if perCluster < meanSize*2 {
		perCluster = meanSize * 2
	}
	for i := range data {
		c := rng.Intn(clusters)
		base := uint32(c * perCluster)
		size := meanSize/2 + rng.Intn(meanSize)
		set := make(map[uint32]bool, size)
		for len(set) < size {
			var item uint32
			if rng.Float64() < 0.75 {
				// Cluster-local, power-law-ish via squared uniform.
				u := rng.Float64()
				item = base + uint32(u*u*float64(perCluster))
			} else {
				// Globally popular head items.
				item = uint32(rng.Intn(meanSize * 4))
			}
			set[item] = true
		}
		out := make([]uint32, 0, len(set))
		for v := range set {
			out = append(out, v)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		data[i] = out
	}
	return data
}
