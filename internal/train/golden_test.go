package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"advhunter/internal/attack"
	"advhunter/internal/data"
	"advhunter/internal/models"
	"advhunter/internal/nn"
	"advhunter/internal/rng"
	"advhunter/internal/tensor"
)

// goldenDigests are the sha256 digests of what the training and attack
// paths compute through nn's Forward/Backward, taken on amd64 (whose
// compiler does not fuse multiply-adds). "<arch>" is the model's parameters
// and batch-norm running statistics after one short SGD epoch; the other
// keys are an FGSM perturbation, a PGD perturbation and an eval-mode input
// gradient on the trained model. A change to any layer kernel that moves a
// single rounding shows here, where TestSGDDeterministic (two runs of the
// same binary) cannot see it.
var goldenDigests = map[string]string{
	"simplecnn":         "c735429b74c2d3a0cdbe4f9bfb7851979c38800a7b1e7df8964f448b8b9ee769",
	"simplecnn/fgsm":    "fd0794a575558f661754ec29676d5ac1463f85a08f6cb7a4da67f49c62539fe1",
	"simplecnn/pgd":     "8d4289b8809dc40ace165391964f1e76fcf02f122da93c0bcc060ab5352bd855",
	"simplecnn/grad":    "596b3f0922c25ae0ced4fb1dee852594261eb04e0f044e8004ecf532075f84aa",
	"efficientnet":      "05c9fc8585f610d4a2b7da2e30a01c91dd4430943b3cce3f0968732adcc5f07c",
	"efficientnet/fgsm": "dc63912cb0d7a0fe9424538d1533fc34cd3e1f41ad60ddd9103a761075bc5b92",
	"efficientnet/pgd":  "45cadba980ecb499d50deef287ab5c8e459940b43ef2fef816c3331d3dda89a3",
	"efficientnet/grad": "81cbbfb8d43e7346d6f4358cce093c7aae84611789f180c9720e792b4f3cf4bd",
	"resnet18":          "b4b038bb0facacfbed045998a152e27c3528f6a42703a005a82860164b3d59f9",
	"densenet":          "e3fc34d613bef0285da6bd3459bb464aa817c1eb24230b31805b38d31439ac05",
	"googlenet":         "eb815517990c2b407f9b669458548736d346c508111b927d2bac366d60e7c4a0",
}

// goldenDataset returns the fixed synthetic set an architecture trains on.
func goldenDataset(arch string) *data.Dataset {
	if arch == "simplecnn" || arch == "efficientnet" {
		return data.MustSynth("fashionmnist", 11, 1, 1)
	}
	return data.MustSynth("cifar10", 11, 1, 1)
}

func hashTensor(h hash.Hash, t *tensor.Tensor) {
	var b [8]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func digest(ts ...*tensor.Tensor) string {
	h := sha256.New()
	for _, t := range ts {
		hashTensor(h, t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelDigest hashes every parameter and batch-norm running statistic in
// the network's declaration order.
func modelDigest(m *models.Model) string {
	var ts []*tensor.Tensor
	for _, p := range m.Net.Params() {
		ts = append(ts, p.Value)
	}
	m.Net.Walk(func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			ts = append(ts, bn.RunningMean, bn.RunningVar)
		}
	})
	return digest(ts...)
}

func TestTrainingAndGradientGolden(t *testing.T) {
	got := map[string]string{}
	for _, arch := range models.Architectures() {
		ds := goldenDataset(arch)
		m := models.MustBuild(arch, ds.C, ds.H, ds.W, ds.Classes, 3)
		cfg := DefaultConfig()
		cfg.Epochs, cfg.BatchSize, cfg.Seed = 1, 4, 5
		SGD(m, ds, cfg)
		got[arch] = modelDigest(m)
		if arch != "simplecnn" && arch != "efficientnet" {
			continue
		}
		x, label := ds.Test[0].X, ds.Test[0].Label
		got[arch+"/fgsm"] = digest(attack.NewFGSM(0.1).Perturb(m, x, label))
		pgd := attack.NewPGD(0.1, rng.New(9))
		pgd.Steps = 3
		got[arch+"/pgd"] = digest(pgd.Perturb(m, x, label))
		batch := x.Reshape(1, ds.C, ds.H, ds.W)
		_, g := nn.SoftmaxCrossEntropy(m.Net.Forward(batch, false), []int{label})
		got[arch+"/grad"] = digest(m.Net.Backward(g))
	}
	for k, v := range got {
		if goldenDigests[k] != v {
			t.Errorf("%s: digest %s, want %s", k, v, goldenDigests[k])
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(goldenDigests))
	}
}
