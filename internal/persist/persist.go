// Package persist is the repository's on-disk artifact format: gob payloads
// wrapped in a schema-tagged envelope and written atomically. Experiment
// caches and fitted-detector files share it, so every artifact class gets
// the same guarantees — a reader never sees a torn file, and a file written
// under an older (or foreign) schema fails to load instead of being misread,
// which callers uniformly treat as a cache miss and regenerate.
package persist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
)

// envelope wraps every persisted payload with its schema tag. Decoding a
// pre-envelope or foreign file fails, which callers treat as a miss.
type envelope struct {
	Schema  int
	Payload []byte
}

// encode renders v as a schema-tagged gob envelope — exactly the bytes Save
// writes to disk. Encoding is deterministic: equal values yield
// byte-identical envelopes.
func encode(schema int, v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("persist: encoding: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{Schema: schema, Payload: payload.Bytes()}); err != nil {
		return nil, fmt.Errorf("persist: enveloping: %w", err)
	}
	return buf.Bytes(), nil
}

// decode parses a schema-tagged envelope, the bytes of a file Save wrote,
// into v. Corrupt bytes, pre-envelope data and foreign schemas all return an
// error — callers uniformly treat any error as a miss.
func decode(raw []byte, schema int, v any) error {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return fmt.Errorf("persist: decoding envelope: %w", err)
	}
	if env.Schema != schema {
		return fmt.Errorf("persist: envelope has schema %d, want %d", env.Schema, schema)
	}
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(v); err != nil {
		return fmt.Errorf("persist: decoding payload: %w", err)
	}
	return nil
}

// Save atomically writes v (gob-encoded, tagged with schema) to path,
// creating directories. The temporary file gets a unique name so concurrent
// writers targeting different paths in one directory never collide.
func Save(path string, schema int, v any) error {
	buf, err := encode(schema, v)
	if err != nil {
		return fmt.Errorf("%w (writing %s)", err, path)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a schema-tagged gob file into v. Corrupt files, pre-envelope
// files, and files written under a different schema all return an error —
// callers treat any error as a cache miss and regenerate.
func Load(path string, schema int, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := decode(raw, schema, v); err != nil {
		return fmt.Errorf("%w (reading %s)", err, path)
	}
	return nil
}
