package distance

import "fmt"

// ByName constructs a built-in metric from its wire name ("ed", "fms",
// ...). Corpus-dependent metrics (fms, cosine, soft-tfidf) compute their
// IDF weights from corpus; corpus-independent metrics ignore it. The
// empty name selects normalized edit distance, the system default.
//
// This is the single authority mapping metric names to implementations:
// the public fuzzydup facade and the query-snapshot verifier both resolve
// names here, so a metric accepted by one is always resolvable by the
// other.
func ByName(name string, corpus []string) (Metric, error) {
	switch name {
	case "", "ed":
		return Edit{}, nil
	case "fms":
		return NewFMS(corpus), nil
	case "cosine":
		return NewCosine(corpus), nil
	case "jaccard":
		return Jaccard{}, nil
	case "jaro":
		return Jaro{}, nil
	case "jaro-winkler":
		return JaroWinkler{}, nil
	case "monge-elkan":
		return MongeElkan{}, nil
	case "soft-tfidf":
		return NewSoftTFIDF(corpus, 0, nil), nil
	case "soundex":
		return SoundexDistance{}, nil
	case "damerau":
		return Damerau{}, nil
	}
	return nil, fmt.Errorf("unknown metric %q", name)
}

// CorpusDependent reports whether the named metric derives IDF weights
// from the corpus ByName builds it over. Such a metric's distances move
// whenever the corpus does, so it can be neither maintained
// incrementally nor solved block-locally.
func CorpusDependent(name string) bool {
	switch name {
	case "fms", "cosine", "soft-tfidf":
		return true
	}
	return false
}
