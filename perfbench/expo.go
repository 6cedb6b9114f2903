package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// scrape holds one /metrics exposition's sample values, keyed by the series
// exactly as the server wrote it: the family name with its suffix and label
// set, e.g. `ptucker_request_duration_seconds_sum{endpoint="predict"}`.
type scrape map[string]float64

// parseScrape validates body with metrics.ParseExposition — the project's
// own exposition contract — and collects its sample values.
func parseScrape(body []byte) (scrape, error) {
	if _, err := metrics.ParseExposition(bytes.NewReader(body)); err != nil {
		return nil, err
	}
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics sample without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics sample %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta returns after − before for one series (a missing series reads 0).
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// deltaPrefix sums after − before over every series whose key starts with
// prefix, e.g. all shards of a per-shard family.
func deltaPrefix(before, after scrape, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// histDelta returns the change of a histogram family's _sum and _count
// between two scrapes, over the series with the given label set ("" for an
// unlabelled histogram, `{endpoint="predict"}` for one series, or "{" for
// every series of a labelled family).
func histDelta(before, after scrape, family, labels string) (sum, count float64) {
	if strings.HasSuffix(labels, "}") || labels == "" {
		return delta(before, after, family+"_sum"+labels), delta(before, after, family+"_count"+labels)
	}
	return deltaPrefix(before, after, family+"_sum"+labels), deltaPrefix(before, after, family+"_count"+labels)
}

// histMean is a histogram's mean observation between two scrapes, or 0 when
// nothing was observed.
func histMean(before, after scrape, family, labels string) float64 {
	sum, count := histDelta(before, after, family, labels)
	if count == 0 {
		return 0
	}
	return sum / count
}
