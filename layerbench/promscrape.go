package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSeries is one parsed sample: metric name, labels, value.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one Prometheus text exposition, keyed by series identity
// (name plus sorted labels). Counters, gauges, and histogram
// _bucket/_sum/_count series are all plain series here; deltas between
// two scrapes of one process are what the benchmark reads.
type scrape map[string]promSeries

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parseProm parses the text exposition format (version 0.0.4): comment
// and blank lines are skipped, every other line is
// `name[{label="value",...}] value [timestamp]`.
func parseProm(text []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", n, err)
		}
		out[seriesKey(s.name, s.labels)] = s
	}
	return out, sc.Err()
}

func parseSeries(line string) (promSeries, error) {
	s := promSeries{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		rest, err = parseLabels(rest[1:], s.labels)
		if err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %q, got %q", s.name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// parseLabels reads `k="v",...}` into labels and returns what follows
// the closing brace. Values may escape \\, \", and \n.
func parseLabels(in string, labels map[string]string) (string, error) {
	for {
		in = strings.TrimLeft(in, " ,")
		if strings.HasPrefix(in, "}") {
			return in[1:], nil
		}
		eq := strings.IndexByte(in, '=')
		if eq <= 0 || len(in) < eq+2 || in[eq+1] != '"' {
			return "", fmt.Errorf("malformed label list %q", in)
		}
		key := strings.TrimSpace(in[:eq])
		in = in[eq+2:]
		var val strings.Builder
		closed := false
		for j := 0; j < len(in); j++ {
			c := in[j]
			if c == '\\' && j+1 < len(in) {
				j++
				switch in[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[j])
				}
				continue
			}
			if c == '"' {
				in = in[j+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated value of label %s", key)
		}
		labels[key] = val.String()
	}
}

// sub returns s − base series by series (series absent from base count
// from zero). For counters and histogram series that is the activity
// between the two scrapes; for gauges, the change.
func (s scrape) sub(base scrape) scrape {
	out := scrape{}
	for k, v := range s {
		v.value -= base[k].value
		out[k] = v
	}
	return out
}

// add folds d into s (accumulating deltas across server lifetimes).
func (s scrape) add(d scrape) {
	for k, v := range d {
		if cur, ok := s[k]; ok {
			v.value += cur.value
		}
		s[k] = v
	}
}

// sum totals every series of name whose labels include match.
func (s scrape) sum(name string, match map[string]string) float64 {
	var t float64
	for _, v := range s {
		if v.name != name {
			continue
		}
		ok := true
		for mk, mv := range match {
			if v.labels[mk] != mv {
				ok = false
				break
			}
		}
		if ok {
			t += v.value
		}
	}
	return t
}

// histMean is a histogram's mean and observation count over the series
// whose labels include match: Σ_sum ÷ Σ_count (0, 0 when empty).
func (s scrape) histMean(name string, match map[string]string) (mean, count float64) {
	count = s.sum(name+"_count", match)
	if count == 0 {
		return 0, 0
	}
	return s.sum(name+"_sum", match) / count, count
}

// fetchMetrics GETs base/v1/metrics and parses it.
func fetchMetrics(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, resp.Status)
	}
	return parseProm(body)
}
