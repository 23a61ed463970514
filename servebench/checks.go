package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// digest hashes the index-ordered (index, adversarial, predicted_class)
// triples of a probe pass. Verdicts are pure functions of (input, index), so
// every boot of one commit, and every replica, must give the same digest.
func digest(outs []outcome) string {
	sorted := append([]outcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].k < sorted[j].k })
	h := sha256.New()
	for _, o := range sorted {
		fmt.Fprintf(h, "%d %t %d\n", o.k, o.adv, o.pred)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fileState is what a tree snapshot records per file.
type fileState struct {
	size int64
	mod  time.Time
	mode fs.FileMode
}

// treeSnapshot records every file in the directories under root, except the
// benchmark's build directory and git metadata; when root is a git work tree
// it also records `git status --porcelain`. Files directly in root are left
// out of the file list: whoever runs the benchmark may capture its output
// there, and neither the benchmark nor the server writes at that level.
type treeSnapshot struct {
	files map[string]fileState
	git   string
}

func snapshotTree(root, skip string) (treeSnapshot, error) {
	snap := treeSnapshot{files: make(map[string]fileState)}
	skip, err := filepath.Abs(skip)
	if err != nil {
		return snap, err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			if abs == skip || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Dir(path) == filepath.Clean(root) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		snap.files[path] = fileState{size: info.Size(), mod: info.ModTime(), mode: info.Mode()}
		return nil
	})
	if err != nil {
		return snap, err
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "status", "--porcelain")
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GIT_OPTIONAL_LOCKS=0")
		if out, err := cmd.Output(); err == nil {
			snap.git = string(out)
		}
	}
	return snap, nil
}

// changesSince lists the files added, removed or modified since before.
func (s treeSnapshot) changesSince(before treeSnapshot) []string {
	var changed []string
	for p, st := range s.files {
		if old, ok := before.files[p]; !ok {
			changed = append(changed, "added "+p)
		} else if old != st {
			changed = append(changed, "modified "+p)
		}
	}
	for p := range before.files {
		if _, ok := s.files[p]; !ok {
			changed = append(changed, "removed "+p)
		}
	}
	if s.git != before.git {
		changed = append(changed, "git status changed: "+strings.TrimSpace(s.git))
	}
	sort.Strings(changed)
	return changed
}

// quantile is the q-quantile of sorted by linear interpolation between
// order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median is the 0.5-quantile of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
