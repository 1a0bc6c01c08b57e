package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnap maps each series, keyed by its line up to the value, to its sample.
type promSnap map[string]series

// parseProm parses the Prometheus text format the service's /metrics and the
// in-process obs registry both write. Comment lines are skipped. Label values
// may hold spaces and braces (route patterns such as "GET /v1/graphs/{id}"),
// so the label block is scanned quote-aware rather than split on spaces.
func parseProm(text string) (promSnap, error) {
	out := make(promSnap)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		key, labels, rest, err := splitSeries(s)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		out[key] = series{name: name, labels: labels, value: v}
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its series key, parsed labels and the
// text after the key.
func splitSeries(s string) (key string, labels map[string]string, rest string, err error) {
	open := strings.IndexByte(s, '{')
	sp := strings.IndexAny(s, " \t")
	if open < 0 || (sp >= 0 && sp < open) {
		if sp < 0 {
			return s, nil, "", nil
		}
		return s[:sp], nil, s[sp:], nil
	}
	labels = make(map[string]string)
	i := open + 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return s[:i+1], labels, s[i+1:], nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return "", nil, "", fmt.Errorf("malformed labels in %q", s)
		}
		lname := s[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return "", nil, "", fmt.Errorf("unterminated label value in %q", s)
		}
		labels[lname] = val.String()
		i++
	}
}

// delta returns after − before for every series in after; a series missing
// from before counts from zero (labeled children appear on first use).
func delta(before, after promSnap) promSnap {
	out := make(promSnap, len(after))
	for k, s := range after {
		s.value -= before[k].value
		out[k] = s
	}
	return out
}

// sum adds the values of every series of the named family whose labels
// include all of want.
func (p promSnap) sum(name string, want map[string]string) float64 {
	var total float64
	for _, s := range p {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.value
		}
	}
	return total
}

// memStats are the two allocator counters the benchmark reads from whichever
// process does the work.
type memStats struct {
	totalAlloc uint64
	numGC      uint64
}

// parseMemStats reads TotalAlloc and NumGC from the runtime.MemStats comment
// block of a Go heap profile in debug=1 text form.
func parseMemStats(text string) (memStats, error) {
	var ms memStats
	var seen int
	for _, line := range strings.Split(text, "\n") {
		for _, f := range []struct {
			prefix string
			dst    *uint64
		}{{"# TotalAlloc = ", &ms.totalAlloc}, {"# NumGC = ", &ms.numGC}} {
			if v, ok := strings.CutPrefix(line, f.prefix); ok {
				n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return ms, fmt.Errorf("heap profile: %s: %w", strings.TrimSpace(line), err)
				}
				*f.dst = n
				seen++
			}
		}
	}
	if seen != 2 {
		return ms, fmt.Errorf("heap profile: TotalAlloc/NumGC not found")
	}
	return ms, nil
}
