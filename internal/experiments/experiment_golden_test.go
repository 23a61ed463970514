package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentGoldens runs every registered experiment except fig6 (about
// 47 s) on the committed caches and requires its JSON to equal the golden
// under testdata/golden byte for byte. The goldens are amd64 values. A run
// that writes a cache file missed the committed one and would have written
// into artifacts/, so it fails too.
func TestExperimentGoldens(t *testing.T) {
	opts := Options{CacheDir: filepath.Join("..", "..", "artifacts", "cache")}
	for _, id := range IDs() {
		if id == "fig6" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			_, _, writes := CacheStats()
			var got bytes.Buffer
			if err := RunJSON(id, opts, &got); err != nil {
				t.Fatal(err)
			}
			if _, _, after := CacheStats(); after != writes {
				t.Fatalf("%s wrote %d cache files: a committed cache missed", id, after-writes)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s output differs from testdata/golden/%s.json; if the change is intended, regenerate it with `go run ./cmd/advhunter experiment -id %s -json`\ngot:\n%s",
					id, id, id, got.String())
			}
		})
	}
}
