package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"microsoft", "microsft", 1},
		{"abc", "abc", 0},
		{"a", "b", 1},
		{"doors", "the doors", 4},
		{"shania", "shaina", 2}, // transposition costs 2 under unit-cost model
	}
	for _, tt := range tests {
		if got := Levenshtein(tt.a, tt.b); got != tt.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	f := func(a, b, c string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		if len(c) > 20 {
			c = c[:20]
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBoundedLevenshtein(t *testing.T) {
	tests := []struct {
		a, b    string
		maxDist int
		want    int
	}{
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, 3}, // exceeds bound: maxDist+1
		{"abc", "abc", 0, 0},
		{"abcdefgh", "xyz", 2, 3}, // length gap alone exceeds the bound
		{"microsoft", "microsft", 5, 1},
		{"", "abc", 2, 3},
		{"", "ab", 2, 2},
	}
	for _, tt := range tests {
		if got := BoundedLevenshtein(tt.a, tt.b, tt.maxDist); got != tt.want {
			t.Errorf("BoundedLevenshtein(%q,%q,%d) = %d, want %d", tt.a, tt.b, tt.maxDist, got, tt.want)
		}
	}
}

func TestBoundedMatchesExact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	f := func(a, b string, bound uint8) bool {
		if len(a) > 15 {
			a = a[:15]
		}
		if len(b) > 15 {
			b = b[:15]
		}
		m := int(bound % 8)
		exact := Levenshtein(a, b)
		got := BoundedLevenshtein(a, b, m)
		if exact <= m {
			return got == exact
		}
		return got == m+1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEditMetric(t *testing.T) {
	m := Edit{}
	if m.Name() != "ed" {
		t.Errorf("Name = %q", m.Name())
	}
	if d := m.Distance("The Doors", "the doors"); d != 0 {
		t.Errorf("case-insensitive distance = %v, want 0", d)
	}
	if d := m.Distance("", ""); d != 0 {
		t.Errorf("empty distance = %v, want 0", d)
	}
	d1 := m.Distance("The Doors LA Woman", "Doors LA Woman")
	d2 := m.Distance("The Doors LA Woman", "Bob Dylan Are You Ready")
	if d1 >= d2 {
		t.Errorf("duplicate pair (%v) should be closer than distinct pair (%v)", d1, d2)
	}
	// The Table 1 pathology: confusable unique tuples closer than duplicates.
	dupDist := m.Distance("The Beatles A Little Help from My Friends", "Beatles, The With A Little Help From My Friend")
	uniqDist := m.Distance("4th Elemynt Ears/Eyes - Part III", "4th Elemynt Ears/Eyes - Part IV")
	if uniqDist >= dupDist {
		t.Errorf("expected Table 1 pathology: unique pair dist %v < duplicate pair dist %v", uniqDist, dupDist)
	}
}

func TestMetricRange(t *testing.T) {
	corpus := []string{
		"microsoft corp", "microsft corporation", "boeing corporation",
		"the doors la woman", "mic corporation",
	}
	metrics := []Metric{Edit{}, NewCosine(corpus), NewFMS(corpus), Jaccard{}}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	for _, m := range metrics {
		m := m
		f := func(a, b string) bool {
			if len(a) > 30 {
				a = a[:30]
			}
			if len(b) > 30 {
				b = b[:30]
			}
			d := m.Distance(a, b)
			dr := m.Distance(b, a)
			return d >= 0 && d <= 1 && math.Abs(d-dr) < 1e-12 && m.Distance(a, a) == 0
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestIDFTable(t *testing.T) {
	corpus := []string{"a corp", "b corp", "c corp", "d unique"}
	idf := NewIDFTable(corpus)
	if idf.Docs() != 4 {
		t.Errorf("Docs = %d", idf.Docs())
	}
	if idf.Weight("corp") >= idf.Weight("unique") {
		t.Errorf("common token should weigh less: corp=%v unique=%v",
			idf.Weight("corp"), idf.Weight("unique"))
	}
	if idf.Weight("neverseen") != idf.Weight("neverseen") || idf.Weight("neverseen") < idf.Weight("unique") {
		t.Errorf("unknown token should get max weight")
	}
}

func TestCosineIDFBehaviour(t *testing.T) {
	// The paper's example: cosine with IDF places "microsft corporation"
	// and "boeing corporation" closer than they deserve only when the
	// shared token is high-weight. With IDF down-weighting of
	// "corporation", the boeing pair must be far.
	corpus := []string{
		"microsoft corp", "microsft corporation", "boeing corporation",
		"acme corporation", "globex corporation", "initech corporation",
	}
	c := NewCosine(corpus)
	dBoeing := c.Distance("microsft corporation", "boeing corporation")
	if dBoeing < 0.5 {
		t.Errorf("IDF should separate boeing/microsft: got %v", dBoeing)
	}
	if d := c.Distance("anything", ""); d != 1 {
		t.Errorf("distance to empty = %v, want 1", d)
	}
	if d := c.Distance("", ""); d != 0 {
		t.Errorf("empty-empty = %v, want 0", d)
	}
}

func TestFMSBehaviour(t *testing.T) {
	corpus := []string{
		"microsoft corp", "microsft corporation", "boeing corporation",
		"mic corporation", "acme corporation", "tyrell corp",
	}
	fms := NewFMS(corpus)
	dup := fms.Distance("microsoft corp", "microsft corporation")
	farA := fms.Distance("microsoft corp", "mic corporation")
	farB := fms.Distance("microsft corporation", "boeing corporation")
	if dup >= farA {
		t.Errorf("fms: duplicate pair (%v) should be closer than mic pair (%v)", dup, farA)
	}
	if dup >= farB {
		t.Errorf("fms: duplicate pair (%v) should be closer than boeing pair (%v)", dup, farB)
	}
	if d := fms.Distance("x", ""); d != 1 {
		t.Errorf("fms to empty = %v, want 1", d)
	}
	if d := fms.Distance("", ""); d != 0 {
		t.Errorf("fms empty-empty = %v, want 0", d)
	}
}

func TestFMSPrefixAbbreviation(t *testing.T) {
	corpus := []string{"intl business machines", "international business machines corp"}
	fms := NewFMS(corpus)
	d := fms.Distance("intl business machines", "international business machines")
	if d > 0.35 {
		t.Errorf("prefix abbreviation should keep tokens close: %v", d)
	}
}

func TestJaccard(t *testing.T) {
	j := Jaccard{Q: 2}
	if d := j.Distance("abc", "abc"); d != 0 {
		t.Errorf("identical = %v", d)
	}
	if d := j.Distance("", ""); d != 0 {
		t.Errorf("empty = %v", d)
	}
	if d := j.Distance("abc", "xyz"); d != 1 {
		t.Errorf("disjoint = %v, want 1", d)
	}
	if j.Name() != "jaccard" {
		t.Errorf("name = %q", j.Name())
	}
	// zero-value Q defaults to 3
	z := Jaccard{}
	if d := z.Distance("hello", "hello"); d != 0 {
		t.Errorf("zero-value gram distance = %v", d)
	}
}

func TestScaled(t *testing.T) {
	m := Scaled{M: Edit{}, Alpha: 0.5}
	base := Edit{}.Distance("abc", "abd")
	if got := m.Distance("abc", "abd"); math.Abs(got-0.5*base) > 1e-12 {
		t.Errorf("scaled = %v, want %v", got, 0.5*base)
	}
	if m.Name() != "ed*scaled" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestFuncMetric(t *testing.T) {
	m := Func{MetricName: "const", F: func(a, b string) float64 { return 0.25 }}
	if m.Name() != "const" || m.Distance("x", "y") != 0.25 {
		t.Error("Func adapter misbehaves")
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	a, s := "the beatles a little help from my friends", "beatles the with a little help from my friend"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein(a, s)
	}
}

func BenchmarkBoundedLevenshtein(b *testing.B) {
	a, s := "the beatles a little help from my friends", "beatles the with a little help from my friend"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BoundedLevenshtein(a, s, 8)
	}
}

func BenchmarkFMS(b *testing.B) {
	corpus := []string{
		"microsoft corp", "microsft corporation", "boeing corporation",
		"the beatles a little help from my friends",
	}
	fms := NewFMS(corpus)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fms.Distance("the beatles a little help from my friends", "beatles the with a little help from my friend")
	}
}

func TestCorpusDependent(t *testing.T) {
	for _, metric := range []string{"fms", "cosine", "soft-tfidf"} {
		if !CorpusDependent(metric) {
			t.Errorf("CorpusDependent(%q) = false", metric)
		}
	}
	for _, metric := range []string{"ed", "jaro", "jaccard", "damerau"} {
		if CorpusDependent(metric) {
			t.Errorf("CorpusDependent(%q) = true", metric)
		}
	}
}
