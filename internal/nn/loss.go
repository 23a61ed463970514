package nn

import (
	"fmt"
	"math"

	"advhunter/internal/tensor"
)

// Softmax converts logits [N, C] to probabilities row by row, using the
// max-subtraction trick for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	checkRank("Softmax", logits, 2)
	n, c := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, c)
	ld, od := logits.Data(), out.Data()
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			od[i*c+j] = e
			sum += e
		}
		for j := 0; j < c; j++ {
			od[i*c+j] /= sum
		}
	}
	return out
}

// SoftmaxCrossEntropy returns the mean cross-entropy loss over the batch and
// the gradient of that loss with respect to the logits. labels[i] is the
// true class of row i.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	probs := Softmax(logits)
	grad := probs.Clone()
	gd := grad.Data()
	loss := 0.0
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		p := probs.At(i, y)
		loss -= math.Log(math.Max(p, 1e-300))
		gd[i*c+y] -= 1
	}
	grad.ScaleInPlace(invN)
	return loss * invN, grad
}
