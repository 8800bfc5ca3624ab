package kernel

import (
	"fmt"
	"math"

	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/sparse"
)

// Point is a training or query sample a kernel can be evaluated on. Both the
// dense visual descriptors and the sparse log vectors satisfy it.
type Point interface {
	// Dot returns the inner product with another point of the same kind.
	Dot(other Point) float64
	// SquaredDistance returns the squared Euclidean distance to another
	// point of the same kind.
	SquaredDistance(other Point) float64
}

// Dense adapts a dense feature vector to the Point interface.
type Dense linalg.Vector

// Dot implements Point.
func (d Dense) Dot(other Point) float64 {
	o, ok := other.(Dense)
	if !ok {
		panic(fmt.Sprintf("kernel: Dense.Dot with incompatible point type %T", other))
	}
	return linalg.Vector(d).Dot(linalg.Vector(o))
}

// SquaredDistance implements Point.
func (d Dense) SquaredDistance(other Point) float64 {
	o, ok := other.(Dense)
	if !ok {
		panic(fmt.Sprintf("kernel: Dense.SquaredDistance with incompatible point type %T", other))
	}
	return linalg.Vector(d).SquaredDistance(linalg.Vector(o))
}

// Sparse adapts a sparse log vector to the Point interface.
type Sparse struct{ *sparse.Vector }

// NewSparse wraps a sparse vector as a kernel point.
func NewSparse(v *sparse.Vector) Sparse { return Sparse{v} }

// Dot implements Point.
func (s Sparse) Dot(other Point) float64 {
	o, ok := other.(Sparse)
	if !ok {
		panic(fmt.Sprintf("kernel: Sparse.Dot with incompatible point type %T", other))
	}
	return s.Vector.Dot(o.Vector)
}

// SquaredDistance implements Point.
func (s Sparse) SquaredDistance(other Point) float64 {
	o, ok := other.(Sparse)
	if !ok {
		panic(fmt.Sprintf("kernel: Sparse.SquaredDistance with incompatible point type %T", other))
	}
	return s.Vector.SquaredDistance(o.Vector)
}

// DensePoints converts a slice of dense vectors to kernel points.
func DensePoints(vs []linalg.Vector) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Dense(v)
	}
	return out
}

// SparsePoints converts a slice of sparse vectors to kernel points.
func SparsePoints(vs []*sparse.Vector) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Sparse{v}
	}
	return out
}

// Kernel is a Mercer kernel K(x,y).
type Kernel interface {
	Eval(x, y Point) float64
	Name() string
}

// Linear is the kernel K(x,y) = <x,y>.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(x, y Point) float64 { return x.Dot(y) }

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// RBF is the Gaussian radial basis function kernel
// K(x,y) = exp(-gamma * ||x-y||^2), the kernel used throughout the paper's
// experiments.
type RBF struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBF) Eval(x, y Point) float64 {
	return math.Exp(-k.Gamma * x.SquaredDistance(y))
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// Polynomial is the kernel K(x,y) = (gamma*<x,y> + coef0)^degree.
type Polynomial struct {
	Degree int
	Gamma  float64
	Coef0  float64
}

// Eval implements Kernel.
func (k Polynomial) Eval(x, y Point) float64 {
	return powi(k.Gamma*x.Dot(y)+k.Coef0, k.Degree)
}

// powi raises base to a non-negative integer power by squaring; math.Pow's
// generality (and cost) is unnecessary for the small integer degrees
// polynomial kernels use. Negative degrees fall back to math.Pow.
func powi(base float64, deg int) float64 {
	if deg < 0 {
		return math.Pow(base, float64(deg))
	}
	result := 1.0
	for deg > 0 {
		if deg&1 == 1 {
			result *= base
		}
		deg >>= 1
		if deg > 0 {
			base *= base
		}
	}
	return result
}

// Name implements Kernel.
func (k Polynomial) Name() string {
	return fmt.Sprintf("poly(degree=%d,gamma=%g,coef0=%g)", k.Degree, k.Gamma, k.Coef0)
}

// Sigmoid is the kernel K(x,y) = tanh(gamma*<x,y> + coef0).
type Sigmoid struct {
	Gamma float64
	Coef0 float64
}

// Eval implements Kernel.
func (k Sigmoid) Eval(x, y Point) float64 {
	return math.Tanh(k.Gamma*x.Dot(y) + k.Coef0)
}

// Name implements Kernel.
func (k Sigmoid) Name() string { return fmt.Sprintf("sigmoid(gamma=%g,coef0=%g)", k.Gamma, k.Coef0) }

// DefaultRBF returns the RBF kernel with gamma = 1/dim, the LIBSVM default
// the paper's experiments rely on.
func DefaultRBF(dim int) RBF {
	if dim <= 0 {
		dim = 1
	}
	return RBF{Gamma: 1 / float64(dim)}
}

// EstimateRBFGamma returns a data-driven RBF bandwidth for a collection of
// points: gamma = 1 / mean squared pairwise distance, estimated over an
// evenly spaced subsample of at most sample points (so the estimate is
// deterministic and cheap for large collections). This is the standard
// "mean/median distance" heuristic; applying the same rule to the visual
// and the log modality puts their decision values on comparable scales,
// which the coupled SVM's summed distances assume. A degenerate collection
// (all points identical) falls back to gamma = 1.
func EstimateRBFGamma(points []Point, sample int) float64 {
	return meanDistanceGamma(len(points), sample, func(i int) Point { return points[i] })
}

// EstimateRBFGammaSet is EstimateRBFGamma over the rows of a sharded set:
// only the subsampled rows are read, as views into the shard storage, so no
// per-row view of the whole collection is built. The subsample indices and
// the arithmetic are EstimateRBFGamma's, so the estimate is bit-identical.
func EstimateRBFGammaSet(set *ShardedSet, sample int) float64 {
	return meanDistanceGamma(set.Len(), sample, func(i int) Point { return set.Point(i) })
}

// meanDistanceGamma is the bandwidth heuristic over n points read through
// point.
func meanDistanceGamma(n, sample int, point func(i int) Point) float64 {
	if n < 2 {
		return 1
	}
	if sample < 2 {
		sample = 2
	}
	// Evenly spaced subsample.
	step := n / sample
	if step < 1 {
		step = 1
	}
	var sub []Point
	for i := 0; i < n && len(sub) < sample; i += step {
		sub = append(sub, point(i))
	}
	var sum float64
	var count int
	for i := 0; i < len(sub); i++ {
		for j := i + 1; j < len(sub); j++ {
			sum += sub[i].SquaredDistance(sub[j])
			count++
		}
	}
	if count == 0 || sum <= 0 {
		return 1
	}
	mean := sum / float64(count)
	if mean < 1e-12 {
		return 1
	}
	return 1 / mean
}

// Gram computes the full kernel (Gram) matrix of the given points.
func Gram(k Kernel, points []Point) *linalg.Matrix {
	n := len(points)
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Eval(points[i], points[j])
			m.Set(i, j, v)
			if i != j {
				m.Set(j, i, v)
			}
		}
	}
	return m
}
