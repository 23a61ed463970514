package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Lint is a strict line-level validator for Prometheus text exposition
// format (version 0.0.4). It enforces, beyond bare parseability:
//
//   - metric and label names match the exposition grammar;
//   - at most one # HELP and one # TYPE per family, both before its series,
//     with a known type;
//   - all series of a family are contiguous (a family never restarts after
//     another family's lines);
//   - no duplicate series (same name and label set);
//   - label values are well-formed quoted strings with only the legal
//     escapes (\\, \", \n);
//   - histogram families expose only _bucket/_sum/_count series, bucket
//     counts are cumulative (non-decreasing in le order), the +Inf bucket is
//     present and equals _count, and every le value parses as a float.
//
// It returns nil for valid output and a line-numbered error otherwise. The
// output of WriteMerged passes by construction; the serve tests run it
// over the full /metrics body.
func Lint(data []byte) error {
	l := &linter{
		families: make(map[string]*lintFamily),
		series:   make(map[string]bool),
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if err := l.line(line); err != nil {
			return fmt.Errorf("line %d: %w (%q)", lineNo, err, line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return l.finish()
}

type lintFamily struct {
	name     string
	typ      string // "" until # TYPE seen
	help     bool
	series   bool // any series line seen
	closed   bool // another family's series started after this one's
	hist     map[string]*histSeries
	histDone bool
}

// histSeries accumulates one histogram child (labels minus le) for the
// cumulative-bucket and +Inf checks.
type histSeries struct {
	buckets  []histBucket
	infCount uint64
	infSeen  bool
	count    uint64
	countOK  bool
	sumOK    bool
}

type histBucket struct {
	le    float64
	count uint64
}

type linter struct {
	families map[string]*lintFamily
	series   map[string]bool
	current  string // family of the most recent series line
}

func (l *linter) family(name string) *lintFamily {
	f, ok := l.families[name]
	if !ok {
		f = &lintFamily{name: name, hist: make(map[string]*histSeries)}
		l.families[name] = f
	}
	return f
}

func (l *linter) line(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return l.comment(line)
	}
	return l.sample(line)
}

// comment handles # HELP / # TYPE / free comments.
func (l *linter) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // "#" alone or "#foo": a plain comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("HELP without a metric name")
		}
		name := fields[2]
		if err := checkMetricName(name); err != nil {
			return err
		}
		f := l.family(name)
		if f.help {
			return fmt.Errorf("second HELP for %s", name)
		}
		if f.series {
			return fmt.Errorf("HELP for %s after its series", name)
		}
		f.help = true
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE needs a metric name and a type")
		}
		name, typ := fields[2], fields[3]
		if err := checkMetricName(name); err != nil {
			return err
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown type %q for %s", typ, name)
		}
		f := l.family(name)
		if f.typ != "" {
			return fmt.Errorf("second TYPE for %s", name)
		}
		if f.series {
			return fmt.Errorf("TYPE for %s after its series", name)
		}
		f.typ = typ
	}
	return nil
}

// sample parses one series line: name[{labels}] value [timestamp].
func (l *linter) sample(line string) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		return err
	}
	rest = strings.TrimLeft(rest, " ")
	valueField, tsField, _ := strings.Cut(rest, " ")
	if valueField == "" {
		return fmt.Errorf("missing value")
	}
	value, err := parseValue(valueField)
	if err != nil {
		return err
	}
	if tsField != "" {
		if _, err := strconv.ParseInt(strings.TrimSpace(tsField), 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", tsField)
		}
	}

	famName := name
	suffix := ""
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, s)
		if base == name {
			continue
		}
		if f, ok := l.families[base]; ok && f.typ == "histogram" {
			famName, suffix = base, s
		}
		break
	}
	f := l.family(famName)
	if f.closed {
		return fmt.Errorf("family %s reappears after other families' series", famName)
	}
	if l.current != "" && l.current != famName {
		l.families[l.current].closed = true
	}
	l.current = famName
	f.series = true

	if f.typ == "histogram" && suffix == "" {
		return fmt.Errorf("histogram %s exposes a bare series (want _bucket/_sum/_count)", famName)
	}

	// Duplicate detection over the canonical (sorted) label set.
	canon := make([]string, 0, len(labels))
	seenLabel := make(map[string]bool, len(labels))
	for _, kv := range labels {
		if seenLabel[kv[0]] {
			return fmt.Errorf("duplicate label %q", kv[0])
		}
		seenLabel[kv[0]] = true
		canon = append(canon, kv[0]+"="+kv[1])
	}
	sortStrings(canon)
	key := name + "{" + strings.Join(canon, ",") + "}"
	if l.series[key] {
		return fmt.Errorf("duplicate series %s", key)
	}
	l.series[key] = true

	if f.typ == "histogram" {
		return l.histSample(f, suffix, labels, value)
	}
	return nil
}

// histSample folds one _bucket/_sum/_count line into its child accumulator.
func (l *linter) histSample(f *lintFamily, suffix string, labels [][2]string, value float64) error {
	var le string
	rest := make([]string, 0, len(labels))
	for _, kv := range labels {
		if kv[0] == "le" {
			le = kv[1]
			continue
		}
		rest = append(rest, kv[0]+"="+kv[1])
	}
	sortStrings(rest)
	child := strings.Join(rest, ",")
	hs, ok := f.hist[child]
	if !ok {
		hs = &histSeries{}
		f.hist[child] = hs
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("histogram %s bucket without le label", f.name)
		}
		if value < 0 || value != float64(uint64(value)) {
			return fmt.Errorf("histogram %s bucket count %g is not a non-negative integer", f.name, value)
		}
		if le == "+Inf" {
			hs.infSeen = true
			hs.infCount = uint64(value)
			return nil
		}
		ub, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("histogram %s: bad le %q", f.name, le)
		}
		hs.buckets = append(hs.buckets, histBucket{le: ub, count: uint64(value)})
	case "_sum":
		hs.sumOK = true
	case "_count":
		if value < 0 || value != float64(uint64(value)) {
			return fmt.Errorf("histogram %s count %g is not a non-negative integer", f.name, value)
		}
		hs.count = uint64(value)
		hs.countOK = true
	}
	return nil
}

// finish runs the whole-family checks that need the full input.
func (l *linter) finish() error {
	for name, f := range l.families {
		if f.typ != "histogram" {
			continue
		}
		for child, hs := range f.hist {
			where := name
			if child != "" {
				where = name + "{" + child + "}"
			}
			if !hs.infSeen {
				return fmt.Errorf("histogram %s: missing +Inf bucket", where)
			}
			if !hs.countOK || !hs.sumOK {
				return fmt.Errorf("histogram %s: missing _sum or _count", where)
			}
			prev := uint64(0)
			prevLe := ""
			for _, b := range hs.buckets {
				if b.count < prev {
					return fmt.Errorf("histogram %s: bucket le=%g count %d below previous bucket %s (%d) — not cumulative",
						where, b.le, b.count, prevLe, prev)
				}
				prev = b.count
				prevLe = strconv.FormatFloat(b.le, 'g', -1, 64)
			}
			if hs.infCount < prev {
				return fmt.Errorf("histogram %s: +Inf bucket %d below last bucket %d", where, hs.infCount, prev)
			}
			if hs.infCount != hs.count {
				return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", where, hs.infCount, hs.count)
			}
		}
	}
	return nil
}

// splitName splits a series line into the metric name and the remainder.
func splitName(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("series line without a value")
	}
	name = line[:i]
	if err := checkMetricName(name); err != nil {
		return "", "", err
	}
	return name, line[i:], nil
}

// parseLabels parses an optional {k="v",...} block, returning pairs in input
// order and the remainder of the line.
func parseLabels(s string) ([][2]string, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	s = s[1:]
	var out [][2]string
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		lname := strings.TrimSpace(s[:eq])
		if err := checkLabelName(lname); err != nil {
			return nil, "", err
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: unquoted value", lname)
		}
		val, rest, err := parseQuoted(s)
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", lname, err)
		}
		out = append(out, [2]string{lname, val})
		s = rest
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("label %s: expected ',' or '}'", lname)
		}
	}
}

// parseQuoted consumes a double-quoted string with \\, \" and \n escapes.
func parseQuoted(s string) (val, rest string, err error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected opening quote")
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("illegal escape \\%c", s[i+1])
			}
			i += 2
		case '"':
			return b.String(), s[i+1:], nil
		case '\n':
			return "", "", fmt.Errorf("newline inside label value")
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// parseValue parses a sample value, accepting the Prometheus special floats.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN", "Nan":
		return strconv.ParseFloat("NaN", 64)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// checkMetricName enforces [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabelName enforces [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", name)
		}
	}
	return nil
}

// sortStrings is a tiny insertion sort — label sets are short, and keeping
// the linter free of sort.* keeps its allocations predictable.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
