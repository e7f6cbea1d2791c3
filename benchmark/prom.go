package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"fuzzydup/internal/obs/promtext"
)

// promSnap is one parsed /metrics scrape: counter and gauge values and
// histograms, keyed by family name plus sorted labels.
type promSnap struct {
	values map[string]float64
	hists  map[string]promHist
}

// promHist is one histogram series: cumulative counts per upper bound
// (the last bound is +Inf), plus sum and count.
type promHist struct {
	bounds []float64
	cum    []float64
	sum    float64
	count  float64
}

// parseProm parses an exposition with the program's strict parser.
func parseProm(r io.Reader) (*promSnap, error) {
	fams, err := promtext.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	s := &promSnap{values: make(map[string]float64), hists: make(map[string]promHist)}
	for _, f := range fams {
		if f.Type != "histogram" {
			for _, smp := range f.Samples {
				s.values[seriesKey(f.Name, smp.Labels)] += smp.Value
			}
			continue
		}
		type bucket struct{ le, n float64 }
		buckets := make(map[string][]bucket)
		for _, smp := range f.Samples {
			key := seriesKey(f.Name, smp.Labels)
			h := s.hists[key]
			switch {
			case strings.HasSuffix(smp.Name, "_bucket"):
				le, err := strconv.ParseFloat(smp.Labels["le"], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad le %q", smp.Name, smp.Labels["le"])
				}
				buckets[key] = append(buckets[key], bucket{le, smp.Value})
			case strings.HasSuffix(smp.Name, "_sum"):
				h.sum = smp.Value
			case strings.HasSuffix(smp.Name, "_count"):
				h.count = smp.Value
			}
			s.hists[key] = h
		}
		for key, bs := range buckets {
			sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
			h := s.hists[key]
			for _, b := range bs {
				h.bounds = append(h.bounds, b.le)
				h.cum = append(h.cum, b.n)
			}
			s.hists[key] = h
		}
	}
	return s, nil
}

// seriesKey is the family name plus its labels (except le), sorted.
func seriesKey(name string, labels map[string]string) string {
	var parts []string
	for k, v := range labels {
		if k != "le" {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return name
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// delta returns after−before for a counter or gauge series.
func delta(before, after *promSnap, key string) float64 {
	return after.values[key] - before.values[key]
}

// histDelta returns the observations a histogram series gained between
// two scrapes.
func histDelta(before, after *promSnap, key string) promHist {
	a := after.hists[key]
	b := before.hists[key]
	d := promHist{bounds: a.bounds, sum: a.sum - b.sum, count: a.count - b.count}
	d.cum = make([]float64, len(a.cum))
	for i := range a.cum {
		d.cum[i] = a.cum[i]
		if i < len(b.cum) {
			d.cum[i] -= b.cum[i]
		}
	}
	return d
}

func (h promHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding it, and returns that bucket's bounds as the estimate's
// resolution.
func (h promHist) quantile(q float64) (v, lo, hi float64) {
	if h.count == 0 || len(h.cum) == 0 {
		return 0, 0, 0
	}
	rank := q * h.count
	prevBound, prevCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			b := h.bounds[i]
			if math.IsInf(b, 1) {
				return prevBound, prevBound, b
			}
			if c == prevCum {
				return b, prevBound, b
			}
			return prevBound + (b-prevBound)*(rank-prevCum)/(c-prevCum), prevBound, b
		}
		prevBound, prevCum = h.bounds[i], c
	}
	return prevBound, prevBound, math.Inf(1)
}

// describe renders a histogram delta the way the report states derived
// percentiles: p50 with its bucket, the mean, and the sample count.
func (h promHist) describe(unit string) string {
	v, lo, hi := h.quantile(0.5)
	return fmt.Sprintf("p50≈%.3f %s (bucket %g–%g), mean %.3f %s, n=%.0f", v, unit, lo, hi, h.mean(), unit, h.count)
}
