package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"advhunter/internal/detect"
	"advhunter/internal/twin"
)

// fittedGoldenS2 is the sha256 of the detect.Save bytes of every registered
// backend fitted on S2's committed validation measurements with
// detect.DefaultConfig(), plus ("twin-gmm") the gmm detector that
// TwinBackend calibrates on twin readings under the committed
// artifacts/twin/S2.gob table. The values are for amd64, the same
// convention as twinGoldenS2.
var fittedGoldenS2 = map[string]string{
	"confidence": "a66f6bcd1338f7812408bb597abc4a1367519fc23c5dc59487799699054b814a",
	"fusion":     "8adef9170e113caa0186c51713235bc77a8dec4eb09a235d797c270fdae60df1",
	"gauss":      "0b6d36791c612735795b798581755c0256a68ff5131847b5287ea48eb6a4133c",
	"gmm":        "2dbcee7e1423b0e908352155faaef58669136e888891eb997d3f0ebb6eff6d5d",
	"kde":        "567de1ba352cf34782d44fa09dfc431aafe99c03d28916a654bd9aeb5eb74517",
	"knn":        "02cf9ef6d84ccfb1ae873c27c589e9b52a5eb612b8d09f7604657a5969a9e124",
	"twin-gmm":   "1ecf7eba8a32cfb1dd0e0f1d83cc487827a55a4a03ced52c39752eef72f0a7c0",
}

// TestFittedDetectorsGolden pins every fitted detector a boot or an
// experiment builds on S2 to its saved bytes, so a change to how fits are
// scheduled or what a boot builds cannot move a threshold or a mixture.
func TestFittedDetectorsGolden(t *testing.T) {
	env, err := LoadEnv("S2", Options{CacheDir: filepath.Join("..", "..", "artifacts", "cache")})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	digest := func(name string, d *detect.Fitted) string {
		path := filepath.Join(dir, name+".gob")
		if err := detect.Save(path, d); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		return hex.EncodeToString(sum[:])
	}
	got := map[string]string{}
	for _, kind := range detect.Kinds() {
		d, err := env.DetectorKind(kind, detect.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got[kind] = digest(kind, d)
	}
	tablePath := filepath.Join("..", "..", "artifacts", "twin", "S2.gob")
	_, tdet, loaded, err := env.TwinBackend(tablePath, twin.DefaultKnots, "gmm", detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("committed S2 twin table misses")
	}
	got["twin-gmm"] = digest("twin-gmm", tdet)
	if len(got) != len(fittedGoldenS2) {
		t.Errorf("fitted %d detectors, golden table has %d", len(got), len(fittedGoldenS2))
	}
	for name, want := range fittedGoldenS2 {
		if got[name] != want {
			t.Errorf("%s: saved detector digest %s, want %s", name, got[name], want)
		}
	}
}
