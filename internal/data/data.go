// Package data provides the three evaluation datasets as seeded procedural
// generators. The real FashionMNIST / CIFAR-10 / GTSRB files are not
// available offline, and the detector under study never inspects pixels —
// it needs (a) classifiers trainable to paper-comparable clean accuracy and
// (b) class-conditional structure so that adversarial examples crossing a
// class boundary excite atypical neuron activations. Each synthetic class is
// therefore a distinct parametric pattern (oriented gratings, Gaussian
// blobs, sign-like shapes) with per-instance jitter, amplitude variation and
// pixel noise, matching the original datasets' shapes and class counts.
package data

import (
	"fmt"

	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// Sample is one labelled image with values in [0, 1].
type Sample struct {
	X     *tensor.Tensor // shape [C, H, W]
	Label int
}

// Dataset is a named train/test split.
type Dataset struct {
	Name    string
	Classes int
	C, H, W int
	Train   []Sample
	Test    []Sample
}

// generator synthesises one image of the given class.
type generator func(class int, r *rng.Rand) *tensor.Tensor

// spec ties a dataset name to its geometry, class count and generator.
type spec struct {
	classes, c, h, w int
	gen              generator
	classNames       []string
}

var specs = map[string]spec{
	"fashionmnist": {10, 1, 28, 28, genFashionMNIST, fashionMNISTNames},
	"cifar10":      {10, 3, 32, 32, genCIFAR10, cifar10Names},
	"gtsrb":        {43, 3, 32, 32, genGTSRB, gtsrbNames},
}

// Names returns the available dataset names.
func Names() []string { return []string{"fashionmnist", "cifar10", "gtsrb"} }

// Describe returns the named dataset's class count and image shape with
// empty splits: what building a model needs, without generating an image.
func Describe(name string) (*Dataset, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown dataset %q (have %v)", name, Names())
	}
	return &Dataset{Name: name, Classes: sp.classes, C: sp.c, H: sp.h, W: sp.w}, nil
}

// Synth generates a dataset with the given per-class sample counts. The seed
// fully determines every pixel.
func Synth(name string, seed uint64, trainPerClass, testPerClass int) (*Dataset, error) {
	d, err := Describe(name)
	if err != nil {
		return nil, err
	}
	sp := specs[name]
	root := rng.New(seed)
	trainRand := root.Split(1)
	testRand := root.Split(2)
	for class := 0; class < sp.classes; class++ {
		for i := 0; i < trainPerClass; i++ {
			d.Train = append(d.Train, Sample{X: sp.gen(class, trainRand), Label: class})
		}
		for i := 0; i < testPerClass; i++ {
			d.Test = append(d.Test, Sample{X: sp.gen(class, testRand), Label: class})
		}
	}
	// Shuffle the training set once so mini-batches mix classes.
	trainRand.Shuffle(len(d.Train), func(i, j int) { d.Train[i], d.Train[j] = d.Train[j], d.Train[i] })
	return d, nil
}

// MustSynth is Synth for static dataset names; it panics on error.
func MustSynth(name string, seed uint64, trainPerClass, testPerClass int) *Dataset {
	d, err := Synth(name, seed, trainPerClass, testPerClass)
	if err != nil {
		panic(err)
	}
	return d
}

// ClassName returns the human-readable label of a class, mirroring the real
// datasets' vocabularies (the paper's target classes 'shirt', 'frog' and
// 'speed limit (30km/h)' keep their canonical indices).
func ClassName(dataset string, class int) string {
	sp, ok := specs[dataset]
	if !ok || class < 0 || class >= sp.classes {
		return fmt.Sprintf("class-%d", class)
	}
	if class < len(sp.classNames) {
		return sp.classNames[class]
	}
	return fmt.Sprintf("class-%d", class)
}

// ByClass buckets samples per label.
func ByClass(samples []Sample, classes int) [][]Sample {
	out := make([][]Sample, classes)
	for _, s := range samples {
		out[s.Label] = append(out[s.Label], s)
	}
	return out
}

// Stack copies samples into one batched tensor plus a label slice.
func Stack(samples []Sample) (*tensor.Tensor, []int) {
	if len(samples) == 0 {
		panic("data: Stack of empty sample list")
	}
	c, h, w := samples[0].X.Dim(0), samples[0].X.Dim(1), samples[0].X.Dim(2)
	x := tensor.New(len(samples), c, h, w)
	labels := make([]int, len(samples))
	sz := c * h * w
	for i, s := range samples {
		copy(x.Data()[i*sz:(i+1)*sz], s.X.Data())
		labels[i] = s.Label
	}
	return x, labels
}

var fashionMNISTNames = []string{
	"t-shirt/top", "trouser", "pullover", "dress", "coat",
	"sandal", "shirt", "sneaker", "bag", "ankle boot",
}

var cifar10Names = []string{
	"airplane", "automobile", "bird", "cat", "deer",
	"dog", "frog", "horse", "ship", "truck",
}

// gtsrbNames lists the 43 GTSRB categories (official ordering).
var gtsrbNames = []string{
	"speed limit (20km/h)", "speed limit (30km/h)", "speed limit (50km/h)",
	"speed limit (60km/h)", "speed limit (70km/h)", "speed limit (80km/h)",
	"end of speed limit (80km/h)", "speed limit (100km/h)", "speed limit (120km/h)",
	"no passing", "no passing for vehicles over 3.5t", "right-of-way at next intersection",
	"priority road", "yield", "stop", "no vehicles", "vehicles over 3.5t prohibited",
	"no entry", "general caution", "dangerous curve to the left",
	"dangerous curve to the right", "double curve", "bumpy road", "slippery road",
	"road narrows on the right", "road work", "traffic signals", "pedestrians",
	"children crossing", "bicycles crossing", "beware of ice/snow",
	"wild animals crossing", "end of all speed and passing limits",
	"turn right ahead", "turn left ahead", "ahead only", "go straight or right",
	"go straight or left", "keep right", "keep left", "roundabout mandatory",
	"end of no passing", "end of no passing for vehicles over 3.5t",
}
