package cluster

import (
	"strings"
	"testing"

	"fuzzydup/internal/core"
)

func TestBlockKeyIdentity(t *testing.T) {
	ds := Dataset{ID: "ds-1", Revision: 7}
	base := BlockKey(ds, []int{1, 5, 9})

	if got := BlockKey(ds, []int{1, 5, 9}); got != base {
		t.Errorf("same block hashed differently: %s vs %s", got, base)
	}
	distinct := []string{
		BlockKey(ds, []int{1, 5}),
		BlockKey(ds, []int{1, 5, 10}),
		BlockKey(Dataset{ID: "ds-2", Revision: 7}, []int{1, 5, 9}),
		BlockKey(Dataset{ID: "ds-1", Revision: 8}, []int{1, 5, 9}),
	}
	seen := map[string]bool{base: true}
	for _, k := range distinct {
		if seen[k] {
			t.Errorf("distinct block collided on key %s", k)
		}
		seen[k] = true
	}
	// Varint encoding must keep member boundaries unambiguous.
	if BlockKey(ds, []int{12, 3}) == BlockKey(ds, []int{1, 23}) {
		t.Error("member concatenation is ambiguous")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	prob := core.Problem{
		Cut:            core.Cut{MaxSize: 4, Diameter: 0.25},
		Agg:            core.AggAvg,
		C:              3,
		P:              1.5,
		MinimalCompact: true,
	}
	p := ParamsFor("ed", prob)
	back, err := p.Problem()
	if err != nil {
		t.Fatalf("Problem(): %v", err)
	}
	if back.Cut != prob.Cut || back.Agg != prob.Agg || back.C != prob.C ||
		back.P != prob.P || back.MinimalCompact != prob.MinimalCompact {
		t.Errorf("round trip changed the problem:\ngot  %+v\nwant %+v", back, prob)
	}
}

func TestParamsRejections(t *testing.T) {
	good := ParamsFor("ed", core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3})

	for _, metric := range []string{"fms", "cosine", "soft-tfidf"} {
		p := good
		p.Metric = metric
		if _, err := p.Problem(); err == nil || !strings.Contains(err.Error(), "corpus-dependent") {
			t.Errorf("metric %q accepted: %v", metric, err)
		}
	}

	bad := good
	bad.Agg = "median"
	if _, err := bad.Problem(); err == nil {
		t.Error("unknown aggregation accepted")
	}
	bad = good
	bad.MaxSize, bad.Diameter = 0, 0
	if _, err := bad.Problem(); err == nil {
		t.Error("empty cut accepted")
	}
}

func TestParamsFingerprintDistinguishes(t *testing.T) {
	base := ParamsFor("ed", core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3})
	variants := []Params{
		ParamsFor("jaro", core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3}),
		ParamsFor("ed", core.Problem{Cut: core.Cut{MaxSize: 4}, C: 3}),
		ParamsFor("ed", core.Problem{Cut: core.Cut{Diameter: 0.3}, C: 3}),
		ParamsFor("ed", core.Problem{Cut: core.Cut{MaxSize: 3}, C: 4}),
		ParamsFor("ed", core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3, MinimalCompact: true}),
		ParamsFor("ed", core.Problem{Cut: core.Cut{MaxSize: 3}, Agg: core.AggAvg, C: 3}),
	}
	seen := map[string]bool{base.fingerprint(): true}
	for _, v := range variants {
		fp := v.fingerprint()
		if seen[fp] {
			t.Errorf("parameter variant %+v collided on fingerprint %s", v, fp)
		}
		seen[fp] = true
	}
}
