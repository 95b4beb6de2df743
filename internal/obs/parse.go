package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Family is one parsed exposition family, as returned by
// ParseExposition.
type Family struct {
	Name    string
	Type    MetricType
	Samples []Sample
}

// Sample is one parsed exposition line.
type Sample struct {
	Name   string // full sample name, including _bucket/_sum/_count suffixes
	Labels map[string]string
	Value  float64
}

// ParseExposition parses and validates Prometheus text exposition
// format. It is strict where the round-trip tests need it to be:
// every sample must belong to the family most recently declared with
// # TYPE (a family's lines form one group, as the format requires and
// Registry.WritePrometheus writes them), histogram series must carry
// the le label on _bucket samples, bucket counts must be cumulative
// (non-decreasing with le), every histogram series must end in a +Inf
// bucket equal to its _count, and counter values must be
// non-negative. It exists so tests and smoke checks can assert
// well-formedness without a Prometheus dependency.
func ParseExposition(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var fams []Family
	declared := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, typ := parts[2], MetricType(parts[3])
			switch typ {
			case TypeCounter, TypeGauge, TypeHistogram:
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, parts[3])
			}
			if declared[name] {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			declared[name] = true
			fams = append(fams, Family{Name: name, Type: typ})
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if len(fams) == 0 {
			return nil, fmt.Errorf("line %d: sample %s has no declared family", lineNo, s.Name)
		}
		// A sample belongs to the family declared last; checkSample
		// rejects one whose name does not match it.
		fam := &fams[len(fams)-1]
		if err := checkSample(fam, s); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == TypeHistogram {
			if err := checkHistogram(&fams[i]); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func checkSample(fam *Family, s Sample) error {
	switch fam.Type {
	case TypeCounter:
		if s.Name != fam.Name {
			return fmt.Errorf("sample %s does not match counter family %s", s.Name, fam.Name)
		}
		if s.Value < 0 {
			return fmt.Errorf("counter %s has negative value %v", s.Name, s.Value)
		}
	case TypeGauge:
		if s.Name != fam.Name {
			return fmt.Errorf("sample %s does not match gauge family %s", s.Name, fam.Name)
		}
	case TypeHistogram:
		switch s.Name {
		case fam.Name + "_bucket":
			if _, ok := s.Labels["le"]; !ok {
				return fmt.Errorf("histogram bucket %s missing le label", s.Name)
			}
			if s.Value < 0 {
				return fmt.Errorf("bucket %s has negative count %v", s.Name, s.Value)
			}
		case fam.Name + "_sum", fam.Name + "_count":
		default:
			return fmt.Errorf("sample %s does not match histogram family %s", s.Name, fam.Name)
		}
	}
	return nil
}

// checkHistogram validates each label series of a histogram family:
// cumulative buckets, a +Inf bucket, and +Inf == _count.
func checkHistogram(fam *Family) error {
	type series struct {
		buckets map[float64]float64 // le -> cumulative count
		count   float64
		hasCnt  bool
	}
	bySeries := map[string]*series{}
	get := func(labels map[string]string) *series {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(labels[k])
			b.WriteByte(';')
		}
		k := b.String()
		s, ok := bySeries[k]
		if !ok {
			s = &series{buckets: map[float64]float64{}}
			bySeries[k] = s
		}
		return s
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le := s.Labels["le"]
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("%s: bad le %q", fam.Name, le)
				}
				bound = v
			}
			get(s.Labels).buckets[bound] = s.Value
		case fam.Name + "_count":
			sr := get(s.Labels)
			sr.count, sr.hasCnt = s.Value, true
		}
	}
	for key, sr := range bySeries {
		if len(sr.buckets) == 0 {
			return fmt.Errorf("%s{%s}: histogram series with no buckets", fam.Name, key)
		}
		bounds := make([]float64, 0, len(sr.buckets))
		for b := range sr.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			return fmt.Errorf("%s{%s}: missing +Inf bucket", fam.Name, key)
		}
		prev := -1.0
		for _, b := range bounds {
			if sr.buckets[b] < prev {
				return fmt.Errorf("%s{%s}: bucket counts not cumulative at le=%v", fam.Name, key, b)
			}
			prev = sr.buckets[b]
		}
		if sr.hasCnt && sr.buckets[math.Inf(1)] != sr.count {
			return fmt.Errorf("%s{%s}: +Inf bucket %v != count %v",
				fam.Name, key, sr.buckets[math.Inf(1)], sr.count)
		}
	}
	return nil
}

// parseSample parses one "name{label="v",...} value" line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// The value is the first field; a timestamp may legally follow.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels consumes a {k="v",...} block starting at s[0]=='{' and
// returns the index just past the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("malformed labels in %q", s)
		}
		name := s[i : i+eq]
		if !validName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape in %q", s)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c in %q", s[i+1], s)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		into[name] = val.String()
	}
}
