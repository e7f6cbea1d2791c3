// Package querysnap implements the online point-query path: an
// immutable, read-optimized snapshot of one dataset's solved dedup state
// that answers "which duplicate group does this record belong to?" in
// microseconds, without re-running a solve.
//
// A Snapshot holds the solved partition three ways at once — a
// key→records hash for exact-match lookups, a record→group map plus
// group membership lists for answering with full group context, and an
// nnindex.Scan (flat q-gram signature table, normalized runes, bounded
// kernels) that answers the nearest-candidate search when no exact
// match exists. A Snapshot is deeply immutable after Build: every field
// is written once and never mutated, so any number of goroutines may
// Lookup concurrently with zero synchronization. Publication is the
// caller's job (internal/server swaps an atomic pointer, RCU-style);
// this package only promises that a Snapshot, once built, never changes.
//
// # Exactness
//
// The candidate search is exact, not approximate: its results are
// bit-for-bit what a linear scan of the true metric over every record
// would return. nnindex.Scan carries the proof: signatures only prune,
// exact verification decides, and a record is skipped only when a
// certified lower bound proves its true distance exceeds the current
// k-th best. The bound exists for the edit-family metrics "ed" and
// "damerau"; for other metrics the scan verifies every record — slower,
// still exact.
package querysnap

import (
	"sort"
	"time"

	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/strutil"
)

// Params echoes the solved problem the snapshot answers for: which cut,
// thresholds, and metric produced its partition.
type Params struct {
	Mode   string  `json:"mode"`
	K      int     `json:"k,omitempty"`
	Theta  float64 `json:"theta,omitempty"`
	C      float64 `json:"c"`
	Metric string  `json:"metric"`
}

// Config is the input to Build: the dataset's records (with their stable
// rids) and the solved partition over them, plus identity metadata.
type Config struct {
	// Dataset is the dataset ID the snapshot serves.
	Dataset string
	// Seq is the publication sequence number (assigned by the publisher;
	// strictly increasing per dataset).
	Seq uint64
	// Rev is the dataset's mutation revision the solved state was
	// computed from; readers compare it against the live revision to
	// judge staleness.
	Rev int64
	// JobID is the job whose result the snapshot was built from.
	JobID string
	// Built is the build timestamp.
	Built time.Time
	// Records and RIDs are the solved corpus, parallel slices.
	Records [][]string
	RIDs    []int64
	// Groups is the solved partition over record indexes; Reps[i] is the
	// representative (medoid) index of Groups[i].
	Groups [][]int
	Reps   []int
	// Params describes the problem; Params.Metric names the metric used
	// for candidate distances (resolved via distance.ByName over the
	// record keys).
	Params Params
}

// Snapshot is the immutable read-optimized view. All exported methods
// are safe for unlimited concurrent use.
type Snapshot struct {
	dataset string
	seq     uint64
	rev     int64
	jobID   string
	built   time.Time
	params  Params

	keys    []string // joined field strings, index-parallel with rids
	rids    []int64
	groupOf []int   // record index -> group index
	groups  [][]int // group index -> sorted member record indexes
	reps    []int   // group index -> representative record index

	byKey map[string][]int // exact-match buckets: key -> record indexes

	metric distance.Metric
	// scan answers misses: the certified nearest-candidate search over
	// keys. Its scratch pool is the only mutable state a Snapshot
	// carries, and sync.Pool makes it safe under the lock-free read
	// contract.
	scan *nnindex.Scan
}

// Build constructs a snapshot. The config's slices are copied or
// re-derived; the caller may mutate its inputs afterwards. Building is
// O(n) hashing plus O(n·len) signature construction and is meant to run
// off the query hot path (a job worker, not a request handler).
func Build(cfg Config) (*Snapshot, error) {
	n := len(cfg.Records)
	s := &Snapshot{
		dataset: cfg.Dataset,
		seq:     cfg.Seq,
		rev:     cfg.Rev,
		jobID:   cfg.JobID,
		built:   cfg.Built,
		params:  cfg.Params,
		keys:    make([]string, n),
		rids:    append([]int64(nil), cfg.RIDs...),
		groupOf: make([]int, n),
		groups:  make([][]int, len(cfg.Groups)),
		reps:    append([]int(nil), cfg.Reps...),
		byKey:   make(map[string][]int, n),
	}
	for i, rec := range cfg.Records {
		k := strutil.JoinFields(rec)
		s.keys[i] = k
		s.byKey[k] = append(s.byKey[k], i)
	}
	for gi, g := range cfg.Groups {
		members := append([]int(nil), g...)
		sort.Ints(members)
		s.groups[gi] = members
		for _, idx := range members {
			s.groupOf[idx] = gi
		}
	}
	metric, err := distance.ByName(cfg.Params.Metric, s.keys)
	if err != nil {
		return nil, err
	}
	s.metric = metric
	s.scan = nnindex.NewScan(s.keys, metric)
	return s, nil
}

// Identity and metadata accessors.

// Dataset returns the dataset ID the snapshot serves.
func (s *Snapshot) Dataset() string { return s.dataset }

// Seq returns the publication sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Rev returns the dataset mutation revision the snapshot was built from.
func (s *Snapshot) Rev() int64 { return s.rev }

// JobID returns the job whose result the snapshot holds.
func (s *Snapshot) JobID() string { return s.jobID }

// Built returns the build timestamp.
func (s *Snapshot) Built() time.Time { return s.built }

// Params returns the solved problem's parameters.
func (s *Snapshot) Params() Params { return s.params }

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return len(s.keys) }

// Groups returns the number of groups in the snapshot's partition.
func (s *Snapshot) Groups() int { return len(s.groups) }

// Prefiltered reports whether the metric admits the certified signature
// bound (the prefilter actually prunes; otherwise lookups verify every
// record).
func (s *Snapshot) Prefiltered() bool { return s.scan.Prefiltered() }

// Enumeration accessors, used by the SQL catalog to expose the solved
// partition as virtual-table rows. Returned slices are the snapshot's
// own immutable backing arrays: read freely, never mutate.

// RID returns the stable record ID of record index i.
func (s *Snapshot) RID(i int) int64 { return s.rids[i] }

// Key returns the joined field string of record index i.
func (s *Snapshot) Key(i int) string { return s.keys[i] }

// GroupOf returns the group index record index i belongs to.
func (s *Snapshot) GroupOf(i int) int { return s.groupOf[i] }

// Members returns group gi's member record indexes, ascending. The
// slice is shared and must not be mutated.
func (s *Snapshot) Members(gi int) []int { return s.groups[gi] }

// RepIndex returns the representative (medoid) record index of group gi.
func (s *Snapshot) RepIndex(gi int) int { return s.reps[gi] }

// Distance returns the snapshot metric's distance between two record
// indexes (used to compute group diameters on demand).
func (s *Snapshot) Distance(i, j int) float64 {
	return s.metric.Distance(s.keys[i], s.keys[j])
}

// GroupInfo is one duplicate group as seen from a query answer: its
// index in the solved partition, its members (by rid and by record
// index), and its representative's rid.
type GroupInfo struct {
	ID             int     `json:"id"`
	Size           int     `json:"size"`
	Representative int64   `json:"representative"`
	Members        []int64 `json:"members"`
	Indexes        []int   `json:"indexes"`
}

// Match is one record whose key exactly equals the query's key.
type Match struct {
	Index int       `json:"index"`
	RID   int64     `json:"rid"`
	Group GroupInfo `json:"group"`
}

// Candidate is one nearest-neighbor candidate of a query with no exact
// match: its true (exactly verified) distance and its group.
type Candidate struct {
	Index    int       `json:"index"`
	RID      int64     `json:"rid"`
	Distance float64   `json:"distance"`
	Group    GroupInfo `json:"group"`
}

// Stats counts the work of one lookup: Scanned signatures, Verified
// exact-metric calls, and Pruned records skipped by the certified bound.
// Scanned == Verified + Pruned on the candidate path; an exact-match hit
// scans nothing.
type Stats struct {
	Scanned  int `json:"scanned"`
	Verified int `json:"verified"`
	Pruned   int `json:"pruned"`
}

// Result is one lookup's answer: every exact match (identical records
// may be split across groups by the SN criterion, so there can be more
// than one), or the top-k nearest candidates when no exact match exists.
type Result struct {
	Matches    []Match
	Candidates []Candidate
	Stats      Stats
}

func (s *Snapshot) groupInfo(gi int) GroupInfo {
	members := s.groups[gi]
	info := GroupInfo{
		ID:             gi,
		Size:           len(members),
		Representative: s.rids[s.reps[gi]],
		Members:        make([]int64, len(members)),
		Indexes:        members, // immutable; shared, never mutated
	}
	for i, idx := range members {
		info.Members[i] = s.rids[idx]
	}
	return info
}

// Lookup answers one point query. If any indexed record's key equals the
// query record's key, all such records are returned as Matches and no
// candidate scan runs. Otherwise the k nearest records by the snapshot's
// metric are returned in ascending (distance, index) order, each with
// its exactly-verified distance — see the package comment for why the
// prefilter cannot change this answer. k <= 0 skips the candidate scan.
func (s *Snapshot) Lookup(record []string, k int) Result {
	var res Result
	key := strutil.JoinFields(record)
	if hits, ok := s.byKey[key]; ok {
		res.Matches = make([]Match, len(hits))
		for i, idx := range hits {
			res.Matches[i] = Match{Index: idx, RID: s.rids[idx], Group: s.groupInfo(s.groupOf[idx])}
		}
		return res
	}
	if k <= 0 || len(s.keys) == 0 {
		return res
	}
	nbs, verified := s.scan.Nearest(key, k)
	res.Stats = Stats{Scanned: len(s.keys), Verified: verified, Pruned: len(s.keys) - verified}
	res.Candidates = make([]Candidate, len(nbs))
	for i, nb := range nbs {
		res.Candidates[i] = Candidate{
			Index:    nb.ID,
			RID:      s.rids[nb.ID],
			Distance: nb.Dist,
			Group:    s.groupInfo(s.groupOf[nb.ID]),
		}
	}
	return res
}
