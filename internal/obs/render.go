package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// snapshotFamilies returns the registry's families sorted by name plus its
// const-label pairs, under one read lock.
func (r *Registry) snapshotFamilies() ([]*family, []string, []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	return fams, r.constNames, r.constValues
}

// WriteMerged renders several registries as one page in Prometheus text
// exposition format (version 0.0.4): families sorted by name, each with its
// # HELP and # TYPE lines followed by its series sorted by label values;
// histograms render cumulative buckets with a trailing +Inf plus _sum and
// _count. The output passes Lint by construction.
//
// Families that share a name merge into a single HELP/TYPE block — the shape
// a multi-replica scrape needs, where every replica's registry exports the
// same families and only the registries' const labels (SetConstLabels) tell
// their series apart. Families merged under one name must agree on kind,
// help, label set and bucket layout; a mismatch panics, exactly like
// re-registering a name differently on one registry does. A nil or repeated
// registry is skipped.
func WriteMerged(w io.Writer, regs ...*Registry) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

	type part struct {
		f      *family
		cn, cv []string
	}
	byName := make(map[string][]part)
	var order []string
	seen := make(map[*Registry]bool, len(regs))
	for _, r := range regs {
		if r == nil || seen[r] {
			continue
		}
		seen[r] = true
		fams, cn, cv := r.snapshotFamilies()
		for _, f := range fams {
			if len(byName[f.name]) == 0 {
				order = append(order, f.name)
			}
			byName[f.name] = append(byName[f.name], part{f: f, cn: cn, cv: cv})
		}
	}
	sort.Strings(order)

	for _, name := range order {
		parts := byName[name]
		first := parts[0].f
		for _, p := range parts[1:] {
			if p.f.kind != first.kind || p.f.help != first.help ||
				!equalStrings(p.f.labels, first.labels) || !equalFloats(p.f.buckets, first.buckets) {
				panic(fmt.Sprintf("obs: metric %s merged across registries with different definitions", name))
			}
		}
		first.writeMeta(cw)
		for _, p := range parts {
			p.f.each(p.cn, p.cv, func(s SeriesSample) {
				fmt.Fprintf(cw, "%s %s\n", s.Key, s.valueText())
			})
			if cw.err != nil {
				return cw.n, cw.err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writeMeta renders one family's HELP and TYPE lines.
func (f *family) writeMeta(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
}

// labelString renders a {name="value",...} block, appending one extra pair
// (the histogram's le) when extraName is non-empty. An empty set renders as
// the empty string, not "{}".
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way the exposition format expects;
// strconv already spells the specials as +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue escapes a label value (backslash, double quote, newline).
func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

// countingWriter tracks bytes written and the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
