package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one parsed line of the Prometheus text format.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads a Prometheus text exposition: comments and blank lines
// are skipped, every other line must be `name{labels} value`.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("unbalanced labels in %q", line)
		}
		s.name = line[:i]
		for _, kv := range splitLabels(line[i+1 : j]) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return s, fmt.Errorf("bad label %q in %q", kv, line)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				return s, fmt.Errorf("bad label value %s in %q", v, line)
			}
			s.labels[k] = uq
		}
		rest = line[j+1:]
	} else {
		name, r, ok := strings.Cut(line, " ")
		if !ok {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.name, rest = name, r
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// splitLabels splits `a="x",b="y,z"` on the commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	inQuote, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// promValue returns the value of the unlabeled series name, if present.
func promValue(samples []promSample, name string) (float64, bool) {
	for _, s := range samples {
		if s.name == name && len(s.labels) == 0 {
			return s.value, true
		}
	}
	return 0, false
}

// histogramMean is the exact average observation of the unlabeled
// histogram name, from its _sum and _count series.
func histogramMean(samples []promSample, name string) (float64, error) {
	sum, haveSum := promValue(samples, name+"_sum")
	count, haveCount := promValue(samples, name+"_count")
	if !haveSum || !haveCount {
		return 0, fmt.Errorf("histogram %s not found", name)
	}
	if count == 0 {
		return 0, nil
	}
	return sum / count, nil
}
