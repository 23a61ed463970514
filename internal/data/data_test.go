package data

import (
	"testing"
	"testing/quick"

	"advhunter/internal/tensor"
)

func TestSynthShapesAndRange(t *testing.T) {
	for _, name := range Names() {
		d := MustSynth(name, 1, 2, 1)
		if len(d.Train) != 2*d.Classes || len(d.Test) != d.Classes {
			t.Fatalf("%s: split sizes %d/%d", name, len(d.Train), len(d.Test))
		}
		for _, s := range append(append([]Sample{}, d.Train...), d.Test...) {
			if s.X.Dim(0) != d.C || s.X.Dim(1) != d.H || s.X.Dim(2) != d.W {
				t.Fatalf("%s: sample shape %v", name, s.X.Shape())
			}
			if s.X.Min() < 0 || s.X.Max() > 1 {
				t.Fatalf("%s: pixel range [%v, %v]", name, s.X.Min(), s.X.Max())
			}
			if s.Label < 0 || s.Label >= d.Classes {
				t.Fatalf("%s: label %d", name, s.Label)
			}
		}
	}
}

func TestSynthDeterministic(t *testing.T) {
	a := MustSynth("cifar10", 7, 3, 2)
	b := MustSynth("cifar10", 7, 3, 2)
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label || !tensor.Equal(a.Train[i].X, b.Train[i].X, 0) {
			t.Fatalf("equal seeds diverged at train sample %d", i)
		}
	}
	c := MustSynth("cifar10", 8, 3, 2)
	same := true
	for i := range a.Test {
		if !tensor.Equal(a.Test[i].X, c.Test[i].X, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSynthUnknownName(t *testing.T) {
	if _, err := Synth("imagenet", 1, 1, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestDescribeMatchesSynth(t *testing.T) {
	for _, name := range Names() {
		d, err := Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		s := MustSynth(name, 1, 1, 1)
		if d.Name != s.Name || d.Classes != s.Classes || d.C != s.C || d.H != s.H || d.W != s.W {
			t.Fatalf("%s: Describe %+v, Synth geometry %s %d×[%d %d %d]", name, d, s.Name, s.Classes, s.C, s.H, s.W)
		}
		if len(d.Train) != 0 || len(d.Test) != 0 {
			t.Fatalf("%s: Describe generated samples", name)
		}
	}
	if _, err := Describe("mnist"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestTrainSetIsShuffled(t *testing.T) {
	d := MustSynth("fashionmnist", 3, 10, 1)
	// If unshuffled, the first 10 train labels would all be class 0.
	first := d.Train[0].Label
	allSame := true
	for _, s := range d.Train[:10] {
		if s.Label != first {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("training set does not appear shuffled")
	}
}

func TestInstancesOfSameClassDiffer(t *testing.T) {
	d := MustSynth("gtsrb", 4, 3, 0)
	buckets := ByClass(d.Train, d.Classes)
	for class, ss := range buckets {
		if len(ss) < 2 {
			continue
		}
		if tensor.Equal(ss[0].X, ss[1].X, 1e-9) {
			t.Fatalf("class %d instances are identical", class)
		}
	}
}

func TestClassSeparation(t *testing.T) {
	// Mean intra-class L2 distance must be clearly below inter-class
	// distance, otherwise nothing is learnable.
	d := MustSynth("cifar10", 5, 6, 0)
	buckets := ByClass(d.Train, d.Classes)
	dist := func(a, b *tensor.Tensor) float64 { return tensor.Sub(a, b).L2Norm() }
	var intra, inter float64
	var nIntra, nInter int
	for c := 0; c < d.Classes; c++ {
		for i := 0; i < len(buckets[c]); i++ {
			for j := i + 1; j < len(buckets[c]); j++ {
				intra += dist(buckets[c][i].X, buckets[c][j].X)
				nIntra++
			}
		}
		for c2 := c + 1; c2 < d.Classes; c2++ {
			inter += dist(buckets[c][0].X, buckets[c2][0].X)
			nInter++
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if inter < 1.3*intra {
		t.Fatalf("classes poorly separated: intra %.3f vs inter %.3f", intra, inter)
	}
}

func TestByClassPartition(t *testing.T) {
	f := func(seed uint64) bool {
		d := MustSynth("fashionmnist", seed, 3, 0)
		buckets := ByClass(d.Train, d.Classes)
		total := 0
		for c, ss := range buckets {
			total += len(ss)
			for _, s := range ss {
				if s.Label != c {
					return false
				}
			}
		}
		return total == len(d.Train)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestStack(t *testing.T) {
	d := MustSynth("cifar10", 2, 1, 0)
	x, labels := Stack(d.Train[:4])
	if x.Dim(0) != 4 || x.Dim(1) != 3 || x.Dim(2) != 32 || x.Dim(3) != 32 {
		t.Fatalf("stacked shape %v", x.Shape())
	}
	if len(labels) != 4 {
		t.Fatal("label count")
	}
	// Row 2 must equal sample 2.
	row := tensor.FromSlice(x.Data()[2*3*32*32:3*3*32*32], 3, 32, 32)
	if !tensor.Equal(row, d.Train[2].X, 0) {
		t.Fatal("Stack copied wrong data")
	}
}

func TestClassNames(t *testing.T) {
	if ClassName("cifar10", 6) != "frog" {
		t.Fatalf("cifar10[6] = %q, want frog", ClassName("cifar10", 6))
	}
	if ClassName("fashionmnist", 6) != "shirt" {
		t.Fatalf("fashionmnist[6] = %q", ClassName("fashionmnist", 6))
	}
	if ClassName("gtsrb", 1) != "speed limit (30km/h)" {
		t.Fatalf("gtsrb[1] = %q", ClassName("gtsrb", 1))
	}
	if ClassName("gtsrb", 99) != "class-99" {
		t.Fatal("out-of-range class name")
	}
}
