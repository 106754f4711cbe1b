package metric

import (
	"reflect"

	"dnnd/internal/wire"
)

// Kernel bundles a metric with its optional construction-loop fast
// paths. Fn is always set. Norm and FnPre are set together when the
// metric admits a norm-precomputed form (currently cosine over
// float32): FnPre(a, b, Norm(b)) must be bit-identical to Fn(a, b), so
// a builder that caches Norm over its local shard computes exactly the
// same distances as one that does not.
//
// Many, when set, is the one-query-vs-many form behind EvalMany: it
// must write out[i] bit-identical to Fn(q, cands[i]) for every i — and,
// when nbs is non-nil and the kernel has a Norm, to FnPre(q, cands[i],
// nbs[i]), which is the same value. It exists to amortize per-call work
// across candidates: the multi-candidate squared-L2 sweeps for L2/sql2 over
// float32, the query's norm computed once per batch for cosine. The
// worker pool's distance stage and the search traversal rely on this
// contract: a batch must land on exactly the float32 values the
// per-pair kernel would have produced.
//
// ManyMany, when set, is the tiled many-queries-vs-many-candidates
// form: query qs[i] owns the candidate segment cands[offs[i]:offs[i+1]]
// and its distances land in out over the same index range. offs has
// len(qs)+1 entries with offs[0] == 0 and offs[len(qs)] == len(cands);
// segments may be empty. nbs, when non-nil, is aligned with cands and
// carries candidate norms, as in EvalMany. Every out[j] is
// bit-identical to the corresponding per-pair Fn/FnPre call. Only the
// float32 metrics with a Many form have one.
type Kernel[T wire.Scalar] struct {
	Fn       Func[T]
	Norm     func(v []T) float32
	FnPre    func(a, b []T, nb float32) float32
	Many     func(q []T, cands [][]T, nbs []float32, out []float32)
	ManyMany func(qs [][]T, offs []int32, cands [][]T, nbs []float32, out []float32)
}

// EvalMany evaluates the metric between one query and many candidates,
// writing distances into out (which must have len >= len(cands)). When
// nbs is non-nil it carries the precomputed Norm of each candidate,
// which the kernel's Many form may use. A kernel without a pre-norm
// form has no norms for callers to cache in the first place; passing
// nbs anyway is not an error, but the values are ignored. Either way
// every out[i] is bit-identical to Fn(q, cands[i]) — EvalMany is a
// throughput optimization, never a semantic one.
func (k Kernel[T]) EvalMany(q []T, cands [][]T, nbs []float32, out []float32) {
	if k.Many != nil {
		k.Many(q, cands, nbs, out)
		return
	}
	for i, c := range cands {
		out[i] = k.Fn(q, c)
	}
}

// KernelFor returns the named metric for element type T together with
// its fast paths, for the construction hot loop. Callers that only need
// the plain function can keep using For.
func KernelFor[T wire.Scalar](k Kind) (Kernel[T], error) {
	fn, err := For[T](k)
	if err != nil {
		return Kernel[T]{}, err
	}
	kern := Kernel[T]{Fn: fn}
	var z T
	switch any(z).(type) {
	case float32:
		switch k {
		case Cosine:
			kern.Norm = any(SquaredNormFloat32).(func([]T) float32)
			kern.FnPre = any(CosinePreNormFloat32).(func([]T, []T, float32) float32)
			kern.Many = any(cosineManyFloat32).(func([]T, [][]T, []float32, []float32))
			kern.ManyMany = any(cosineManyManyFloat32).(func([][]T, []int32, [][]T, []float32, []float32))
		case L2:
			kern.Many = any(L2Float32Many).(func([]T, [][]T, []float32, []float32))
			kern.ManyMany = any(L2Float32ManyMany).(func([][]T, []int32, [][]T, []float32, []float32))
		case SquaredL2:
			kern.Many = any(SquaredL2Float32Many).(func([]T, [][]T, []float32, []float32))
			kern.ManyMany = any(SquaredL2Float32ManyMany).(func([][]T, []int32, [][]T, []float32, []float32))
		}
	}
	return kern, nil
}

// KernelOf returns the kernel behind a bare Func: KernelFor(kind) when f
// is one of the functions For hands out, and Kernel{Fn: f} for any
// other function (a closure, a test metric), whose EvalMany then calls
// f pair by pair. This is how callers whose API carries only a Func —
// search, brute force, core.Build — reach the block forms without a
// signature change. The match is on the function's code address, which
// is unique per top-level function; it costs one map lookup.
func KernelOf[T wire.Scalar](f Func[T]) Kernel[T] {
	if kind, ok := funcKinds[reflect.ValueOf(f).Pointer()]; ok {
		if kern, err := KernelFor[T](kind); err == nil {
			return kern
		}
	}
	return Kernel[T]{Fn: f}
}

// funcKinds maps the code address of every Func that For returns to
// its kind. Addresses differ across element types, so one map serves
// all three.
var funcKinds = func() map[uintptr]Kind {
	m := make(map[uintptr]Kind)
	add := func(f any, k Kind) { m[reflect.ValueOf(f).Pointer()] = k }
	for _, k := range Kinds() {
		if f, err := ForFloat32(k); err == nil {
			add(f, k)
		}
		if f, err := ForUint8(k); err == nil {
			add(f, k)
		}
		if f, err := ForUint32(k); err == nil {
			add(f, k)
		}
	}
	return m
}()
