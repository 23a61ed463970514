package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"

	"advhunter/internal/core"
	"advhunter/internal/engine"
	"advhunter/internal/twin"
	"advhunter/internal/uarch/hpc"
)

// twinGoldenS2 is the sha256 of the twin readings of S2's first eight
// validation images (noise index = position) under the committed
// artifacts/twin/S2.gob table, in measurementDigest's encoding.
const twinGoldenS2 = "61a1d2be8cbcf3cfa110c1c6ff38a7826564f7785b7c6da510fc340c325c0f0a"

// TestCommittedMeasurementsReproduce pins the measurement protocol to the
// committed caches. The caches load by cacheSchema alone, so a protocol
// change that kept the schema would silently mix old and new readings in
// every cached experiment; re-measuring a prefix of each committed
// validation set must reproduce its bytes exactly.
func TestCommittedMeasurementsReproduce(t *testing.T) {
	const n = 8
	cacheDir := filepath.Join("..", "..", "artifacts", "cache")
	for _, id := range []string{"S1", "S2"} {
		t.Run(id, func(t *testing.T) {
			env, err := LoadEnv(id, Options{CacheDir: cacheDir})
			if err != nil {
				t.Fatalf("loading %s: %v", id, err)
			}
			var committed []core.Measurement
			if err := loadGob(env.cachePath("meas-validation.gob"), &committed); err != nil {
				t.Fatalf("loading committed validation measurements: %v", err)
			}
			if len(committed) < n {
				t.Fatalf("committed validation set has %d rows, want at least %d", len(committed), n)
			}
			got := core.MeasureSet(env.Meas, env.ValidationPool()[:n])
			for i := range got {
				if measurementDigest(got[i:i+1]) != measurementDigest(committed[i:i+1]) {
					t.Fatalf("row %d: re-measured %+v, committed %+v", i, got[i], committed[i])
				}
			}
		})
	}
	t.Run("twin-S2", func(t *testing.T) {
		env, err := LoadEnv("S2", Options{CacheDir: cacheDir})
		if err != nil {
			t.Fatalf("loading S2: %v", err)
		}
		tab, ok := twin.TryLoad(filepath.Join("..", "..", "artifacts", "twin", "S2.gob"),
			twin.ModelHash(env.Model), twin.MachineHash(engine.DefaultMachineConfig()))
		if !ok {
			t.Fatal("committed S2 twin table misses")
		}
		tm, err := twin.FromMeasurer(env.Meas, tab)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]core.Measurement, n)
		for i, s := range env.ValidationPool()[:n] {
			ms[i] = tm.MeasureAt(uint64(i), s.X)
		}
		if got := measurementDigest(ms); got != twinGoldenS2 {
			t.Fatalf("twin readings digest %s, want %s", got, twinGoldenS2)
		}
	})
}

// measurementDigest hashes measurements field by field — prediction, label,
// confidence and every event count as raw bits — so equal digests mean
// bit-identical readings.
func measurementDigest(ms []core.Measurement) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, m := range ms {
		word(uint64(int64(m.Pred)))
		word(uint64(int64(m.TrueLabel)))
		word(math.Float64bits(m.Conf))
		for e := hpc.Event(0); e < hpc.NumEvents; e++ {
			word(math.Float64bits(m.Counts[e]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
