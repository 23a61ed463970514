package persist

import (
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	Name string
	Vals []float64
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "dir", "artifact.gob")
	want := payload{Name: "x", Vals: []float64{1, 2.5, -3}}
	if err := Save(path, 7, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var got payload
	if err := Load(path, 7, &got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != want.Name || len(got.Vals) != len(want.Vals) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Vals {
		if got.Vals[i] != want.Vals[i] {
			t.Fatalf("value %d: %v vs %v", i, got.Vals[i], want.Vals[i])
		}
	}
}

func TestSchemaMismatchFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.gob")
	if err := Save(path, 1, payload{Name: "old"}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var got payload
	if err := Load(path, 2, &got); err == nil {
		t.Fatal("Load under a different schema should fail")
	}
}

func TestCorruptFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.gob")
	if err := os.WriteFile(path, []byte("not a gob envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := Load(path, 1, &got); err == nil {
		t.Fatal("Load of a corrupt file should fail")
	}
}

func TestTruncatedFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.gob")
	if err := Save(path, 1, payload{Name: "x", Vals: []float64{1, 2, 3}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := Load(path, 1, &got); err == nil {
		t.Fatal("Load of a truncated file should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := payload{Name: "bytes", Vals: []float64{4, 5, 6}}
	raw, err := encode(3, want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got payload
	if err := decode(raw, 3, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name != want.Name || len(got.Vals) != 3 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	if err := decode(raw, 4, &got); err == nil {
		t.Fatal("decode under a different schema should fail")
	}
	if err := decode(raw[:len(raw)/2], 3, &got); err == nil {
		t.Fatal("decode of truncated bytes should fail")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	v := payload{Name: "same", Vals: []float64{1, 2, 3}}
	a, err := encode(9, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encode(9, v)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("encode of equal values produced different bytes")
	}
}

func TestFileAndByteFormsAgree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.gob")
	want := payload{Name: "shared", Vals: []float64{7}}
	if err := Save(path, 5, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := decode(raw, 5, &got); err != nil {
		t.Fatalf("decode of a Save'd file: %v", err)
	}
	if got.Name != want.Name {
		t.Fatalf("file/byte mismatch: %+v vs %+v", got, want)
	}
}

func TestMissingFileFails(t *testing.T) {
	var got payload
	if err := Load(filepath.Join(t.TempDir(), "absent.gob"), 1, &got); err == nil {
		t.Fatal("Load of a missing file should fail")
	}
}
