package distance

import "sync/atomic"

// Counting wraps a metric and counts Distance calls. Distance computation
// is the unit of work the paper's complexity analysis is written in, so
// the counter is what instrumentation reports as "comparisons". The
// counter is atomic: parallel phase-1 workers share one Counting metric.
type Counting struct {
	m Metric
	n atomic.Int64
}

// NewCounting wraps m with a call counter.
func NewCounting(m Metric) *Counting {
	return &Counting{m: m}
}

// Name implements Metric.
func (c *Counting) Name() string { return c.m.Name() }

// Distance implements Metric, incrementing the call counter.
func (c *Counting) Distance(a, b string) float64 {
	c.n.Add(1)
	return c.m.Distance(a, b)
}

// Calls returns the number of Distance calls made through the wrapper.
func (c *Counting) Calls() int64 { return c.n.Load() }

// Add counts n calls of the wrapped metric made elsewhere on the
// wrapper's behalf, such as by a block solve on another host.
func (c *Counting) Add(n int64) { c.n.Add(n) }

// Unwrap returns the underlying metric.
func (c *Counting) Unwrap() Metric { return c.m }
