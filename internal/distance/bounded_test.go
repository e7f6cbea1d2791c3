package distance

import (
	"math/rand"
	"strings"
	"testing"
)

func randRunes(r *rand.Rand, n int) []rune {
	b := make([]rune, n)
	for i := range b {
		b[i] = rune('a' + r.Intn(6)) // tiny alphabet: frequent matches and transpositions
	}
	return b
}

// TestBoundedKernelsExact: for every random pair and every cap, the
// bounded kernels must return the true distance when it is within the
// cap and exactly cap+1 otherwise — the contract the query snapshot's
// pruning correctness depends on.
func TestBoundedKernelsExact(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	// One scratch across every call: stale row contents from earlier
	// (larger) computations must never leak into later results.
	sc := &BoundedScratch{}
	for trial := 0; trial < 3000; trial++ {
		ra := randRunes(r, r.Intn(15))
		rb := randRunes(r, r.Intn(15))
		a, b := string(ra), string(rb)
		trueLev := Levenshtein(a, b)
		trueOSA := OSADistance(a, b)
		for cap := 0; cap <= 16; cap++ {
			gotLev := BoundedLevenshteinRunes(ra, rb, cap, sc)
			wantLev := trueLev
			if trueLev > cap {
				wantLev = cap + 1
			}
			if gotLev != wantLev {
				t.Fatalf("BoundedLevenshteinRunes(%q, %q, %d) = %d, want %d (true %d)",
					a, b, cap, gotLev, wantLev, trueLev)
			}
			gotOSA := BoundedOSARunes(ra, rb, cap, sc)
			wantOSA := trueOSA
			if trueOSA > cap {
				wantOSA = cap + 1
			}
			if gotOSA != wantOSA {
				t.Fatalf("BoundedOSARunes(%q, %q, %d) = %d, want %d (true %d)",
					a, b, cap, gotOSA, wantOSA, trueOSA)
			}
		}
	}
}

// TestBoundedOSATransposition: the canonical OSA cases must survive the
// banding (a transposition reaches two rows back in the DP, the part the
// band guards have to keep intact).
func TestBoundedOSATransposition(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"ab", "ba", 1},
		{"shania", "shaina", 1},
		{"ca", "abc", 3}, // the classic OSA-vs-full-Damerau witness
		{"abcdef", "abcdef", 0},
		{"", "abc", 3},
	}
	for _, c := range cases {
		for cap := c.want; cap <= c.want+3; cap++ {
			if got := BoundedOSARunes([]rune(c.a), []rune(c.b), cap, nil); got != c.want {
				t.Errorf("BoundedOSARunes(%q, %q, %d) = %d, want %d", c.a, c.b, cap, got, c.want)
			}
		}
		if c.want > 0 {
			if got := BoundedOSARunes([]rune(c.a), []rune(c.b), c.want-1, nil); got != c.want {
				t.Errorf("BoundedOSARunes(%q, %q, %d) = %d, want cap+1 = %d", c.a, c.b, c.want-1, got, c.want)
			}
		}
	}
	long := strings.Repeat("x", 200) + "ab" + strings.Repeat("y", 200)
	swapped := strings.Repeat("x", 200) + "ba" + strings.Repeat("y", 200)
	if got := BoundedOSARunes([]rune(long), []rune(swapped), 3, nil); got != 1 {
		t.Errorf("long transposition = %d, want 1", got)
	}
}

// FuzzBoundedKernels holds the bounded kernels to the full DP oracles on
// arbitrary strings, past the 64-rune word boundary and with non-ASCII
// runes: each must return min(true distance, cap+1) at the fuzzed cap,
// at every cap next to the true distance, and at caps 63–65.
func FuzzBoundedKernels(f *testing.F) {
	long := strings.Repeat("kettlebridge ", 6) // 78 runes
	f.Add("kitten", "sitting", uint16(2))
	f.Add("shania", "shaina", uint16(1))
	f.Add(long, long[1:]+"x", uint16(3))
	f.Add(long+"ünïcødé", "ünïcødé"+long, uint16(70))
	f.Add(strings.Repeat("é", 65), strings.Repeat("é", 64)+"e", uint16(1))
	f.Add("", "日本語のテキスト", uint16(0))
	f.Fuzz(func(t *testing.T, a, b string, maxDist uint16) {
		// Cap the lengths so the quadratic oracles stay fast.
		ra, rb := []rune(a), []rune(b)
		ra, rb = ra[:min(len(ra), 300)], rb[:min(len(rb), 300)]
		a, b = string(ra), string(rb)
		trueLev, trueOSA := Levenshtein(a, b), OSADistance(a, b)
		var sc BoundedScratch
		for _, c := range []int{int(maxDist), trueLev - 1, trueLev, trueLev + 1, trueOSA - 1, trueOSA, trueOSA + 1, 63, 64, 65} {
			if c < 0 {
				continue
			}
			if got, want := BoundedLevenshteinRunes(ra, rb, c, &sc), min(trueLev, c+1); got != want {
				t.Fatalf("BoundedLevenshteinRunes(%q, %q, %d) = %d, want %d (true %d)", a, b, c, got, want, trueLev)
			}
			if got, want := BoundedOSARunes(ra, rb, c, &sc), min(trueOSA, c+1); got != want {
				t.Fatalf("BoundedOSARunes(%q, %q, %d) = %d, want %d (true %d)", a, b, c, got, want, trueOSA)
			}
		}
	})
}
