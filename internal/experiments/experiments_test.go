package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/detect"
	"advhunter/internal/engine"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// The TEST scenario is a miniature environment so the package tests run in
// seconds rather than minutes.
func init() {
	Scenarios["TEST"] = Scenario{
		ID: "TEST", Dataset: "fashionmnist", Arch: "simplecnn",
		TargetClass:   6,
		TemplateM:     10,
		TrainPerClass: 12, TestPerClass: 6, ValPerClass: 15,
		LearningRate: 0.02, Epochs: 8, TargetAccuracy: 0.97, Seed: 900,
	}
}

var (
	envOnce sync.Once
	envFix  *Env
	envErr  error
	envDir  string
)

// testEnv loads the TEST environment once, cached in a shared temp dir.
func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envDir = t.TempDir()
		envFix, envErr = LoadEnv("TEST", Options{CacheDir: envDir, Quick: true})
	})
	if envErr != nil {
		t.Fatalf("loading TEST env: %v", envErr)
	}
	return envFix
}

func TestLoadEnvUnknown(t *testing.T) {
	if _, err := LoadEnv("S9", Options{}); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

func TestLoadEnvTrainsAndCaches(t *testing.T) {
	env := testEnv(t)
	if env.CleanAcc() < 0.7 {
		t.Fatalf("TEST model accuracy %.2f too low", env.CleanAcc())
	}
	// Second load must reuse the checkpoint and produce an equal model.
	env2, err := LoadEnv("TEST", Options{CacheDir: envDir})
	if err != nil {
		t.Fatal(err)
	}
	x := env.Data().Test[0].X
	if env.Model.Predict(x) != env2.Model.Predict(x) {
		t.Fatal("cached model predicts differently")
	}
}

// TestCommittedTwinTablesHit pins the committed twin tables to their
// scenarios' cached models under the default machine config. A miss here
// means a model or machine hash drifted: serving would silently re-profile
// the table at start-up instead of loading it.
func TestCommittedTwinTablesHit(t *testing.T) {
	cacheDir := filepath.Join("..", "..", "artifacts", "cache")
	tables := []struct{ scenario, path string }{
		{"S1", filepath.Join("..", "..", "artifacts", "twin", "S1.gob")},
		{"S2", filepath.Join("..", "..", "artifacts", "twin", "S2.gob")},
		{"S2", filepath.Join(cacheDir, cacheVersionDir, "S2", fmt.Sprintf("twin-k%d.gob", twin.DefaultKnots))},
	}
	machine := twin.MachineHash(engine.DefaultMachineConfig())
	envs := map[string]*Env{}
	for _, tc := range tables {
		env, ok := envs[tc.scenario]
		if !ok {
			var err error
			if env, err = LoadEnv(tc.scenario, Options{CacheDir: cacheDir}); err != nil {
				t.Fatalf("loading %s: %v", tc.scenario, err)
			}
			envs[tc.scenario] = env
		}
		if _, ok := twin.TryLoad(tc.path, twin.ModelHash(env.Model), machine); !ok {
			t.Errorf("%s: committed twin table misses under the default machine config", tc.path)
		}
	}
}

func TestAttackSpecKeyAndString(t *testing.T) {
	a := AttackSpec{Kind: "fgsm", Eps: 0.5, Targeted: true}
	if a.Key() != "fgsm-t-0.5" {
		t.Fatalf("key %q", a.Key())
	}
	if !strings.Contains(a.String(), "FGSM") || !strings.Contains(a.String(), "targeted") {
		t.Fatalf("string %q", a.String())
	}
	d := AttackSpec{Kind: "deepfool"}
	if !strings.Contains(d.String(), "DeepFool") {
		t.Fatalf("string %q", d.String())
	}
	if _, err := (AttackSpec{Kind: "zoo"}).build(0, 1); err == nil {
		t.Fatal("expected error for unknown attack kind")
	}
}

func TestAttackSourcesBalancedAndExcludesTarget(t *testing.T) {
	env := testEnv(t)
	src := env.attackSources(true, 18)
	if len(src) == 0 {
		t.Fatal("no sources")
	}
	counts := map[int]int{}
	for _, s := range src {
		if s.Label == env.Scn.TargetClass {
			t.Fatal("target class used as source for targeted attack")
		}
		counts[s.Label]++
	}
	if len(counts) < 5 {
		t.Fatalf("sources cover only %d classes; want round-robin balance", len(counts))
	}
}

func TestCraftAndAttackCached(t *testing.T) {
	env := testEnv(t)
	spec := AttackSpec{Kind: "fgsm", Eps: 0.4, Targeted: true}
	a1, err := env.Attack(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := env.Attack(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Meas) != len(a2.Meas) || a1.SuccessRate != a2.SuccessRate {
		t.Fatal("cached attack differs from fresh attack")
	}
	for i := range a1.Meas {
		if a1.Meas[i].Counts != a2.Meas[i].Counts {
			t.Fatal("cached measurements differ")
		}
	}
}

func TestSampleDTORoundTrip(t *testing.T) {
	env := testEnv(t)
	orig := env.Data().Test[:3]
	back := fromDTOs(toDTOs(orig))
	for i := range orig {
		if back[i].Label != orig[i].Label {
			t.Fatal("label lost")
		}
		if back[i].X.At(0, 3, 4) != orig[i].X.At(0, 3, 4) {
			t.Fatal("pixels lost")
		}
	}
}

func TestTemplateFromMeasurementsCapsPerClass(t *testing.T) {
	var ms []core.Measurement
	for i := 0; i < 30; i++ {
		var c hpc.Counts
		c[hpc.CacheMisses] = float64(i)
		ms = append(ms, core.Measurement{Pred: i % 2, Counts: c})
	}
	tpl := TemplateFromMeasurements(ms, 2, 5, hpc.AllEvents())
	if len(tpl.Rows[0]) != 5 || len(tpl.Rows[1]) != 5 {
		t.Fatalf("per-class sizes %d/%d, want 5/5", len(tpl.Rows[0]), len(tpl.Rows[1]))
	}
}

func TestDetectorEndToEndOnTestEnv(t *testing.T) {
	env := testEnv(t)
	det, err := env.Detector()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := env.CleanMeasurements(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("no correct clean measurements")
	}
	spec := AttackSpec{Kind: "fgsm", Eps: 0.4, Targeted: true}
	ar, err := env.Attack(spec, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Meas) == 0 {
		t.Skip("attack produced no successful AEs at this tiny scale")
	}
	conf := detect.EvaluateEvent(det, hpc.CacheMisses, clean, ar.Meas, 0)
	if conf.Total() != len(clean)+len(ar.Meas) {
		t.Fatal("evaluation accounting")
	}
}

func TestGobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.gob"
	in := map[string][]float64{"a": {1, 2, 3}}
	if err := saveGob(path, in); err != nil {
		t.Fatal(err)
	}
	var out map[string][]float64
	if err := loadGob(path, &out); err != nil {
		t.Fatal(err)
	}
	if out["a"][2] != 3 {
		t.Fatal("round trip lost data")
	}
	if err := loadGob(dir+"/missing.gob", &out); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestResampleNoiseDeterministic(t *testing.T) {
	var c hpc.Counts
	c[hpc.CacheMisses] = 1000
	truth := []core.Measurement{{Pred: 1, Counts: c}}
	a := resampleNoise(truth, hpc.DefaultNoise(), 5, 7, 1)
	b := resampleNoise(truth, hpc.DefaultNoise(), 5, 7, 4)
	if a[0].Counts != b[0].Counts {
		t.Fatal("resampling not deterministic")
	}
	d := resampleNoise(truth, hpc.DefaultNoise(), 5, 8, 1)
	if a[0].Counts == d[0].Counts {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("col-a", "b")
	tb.add("x", 1.5)
	tb.addf("yyyy", "z")
	tb.render(&buf)
	out := buf.String()
	for _, want := range []string{"col-a", "-----", "1.5000", "yyyy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artefact must be registered.
	for _, id := range []string{"table1", "table2", "table3", "fig1", "fig3", "fig4", "fig5", "fig6"} {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("registry missing %s", id)
		}
	}
	if err := Run("nonexistent", Options{}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestMachineVariantCachesUnderItsTag pins the variant contract: a machine
// variant measures under its own tagged cache keys, re-measures the parent's
// crafted adversarial examples without crafting them again, and leaves every
// cache of the parent untouched.
func TestMachineVariantCachesUnderItsTag(t *testing.T) {
	parent := *testEnv(t)
	parent.Opts.CacheDir = t.TempDir()
	dir := filepath.Dir(parent.cachePath("x"))
	spec := AttackSpec{Kind: "fgsm", Eps: 0.4, Targeted: true}
	evaluate := func(e *Env) {
		t.Helper()
		if _, err := e.Detector(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CleanMeasurements(spec.Targeted); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Attack(spec, 12); err != nil {
			t.Fatal(err)
		}
	}
	files := func() map[string][]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, de := range entries {
			b, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[de.Name()] = b
		}
		return out
	}

	evaluate(&parent)
	before := files()
	_, _, writes := CacheStats()
	evaluate(parent.machine("quant15", func(m *engine.MachineConfig) { m.QuantLevels = 15 }))
	_, _, after := CacheStats()
	now := files()

	for name, b := range before {
		if !bytes.Equal(now[name], b) {
			t.Errorf("the variant changed the parent's %s", name)
		}
	}
	var added []string
	for name := range now {
		if _, ok := before[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	want := []string{
		"meas-ae-fgsm-t-0.4-n12-quant15.gob",
		"meas-test-clean-quant15.gob",
		"meas-validation-quant15.gob",
	}
	if fmt.Sprint(added) != fmt.Sprint(want) {
		t.Errorf("the variant wrote %v, want %v", added, want)
	}
	if after-writes != uint64(len(want)) {
		t.Errorf("the variant made %d cache writes, want %d: one per tagged measurement set, no craft", after-writes, len(want))
	}
}

func TestRunJSONUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunJSON("nope", Options{}, &buf); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}
