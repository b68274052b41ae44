package crowd

import (
	"sort"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// ConsistencyChecker implements the spammer filter of Section 4.2 ("Crowd
// member selection"): within one member's answers, the support of a more
// specific fact-set can never exceed the support of a more general one. The
// checker records each member's (fact-set, support) answers and counts
// violations of this monotonicity, allowing small tolerance for the noise
// of a cooperative member.
//
// State is held per member in independent logs. Callers serialize access.
type ConsistencyChecker struct {
	v *vocab.Vocabulary
	// Tolerance is the slack allowed before a pair counts as a
	// violation. Honest answers are monotone even after bucketing (the
	// scale is a monotone map), so the default allows only sub-step
	// noise; tolerance for occasional full-step inversions comes from
	// MaxViolationRate instead.
	Tolerance float64
	// MaxViolationRate is the violation fraction above which a member is
	// flagged as a spammer.
	MaxViolationRate float64

	members map[string]*memberLog
}

// memberLog holds one member's answer history and violation counters.
type memberLog struct {
	answers []recorded
	pairs   int // comparable pairs seen
	bad     int // violating pairs
}

type recorded struct {
	fs      ontology.FactSet
	support float64
}

// NewConsistencyChecker builds a checker with the defaults discussed above.
func NewConsistencyChecker(v *vocab.Vocabulary) *ConsistencyChecker {
	return &ConsistencyChecker{
		v:                v,
		Tolerance:        0.1,
		MaxViolationRate: 0.25,
		members:          make(map[string]*memberLog),
	}
}

// log returns the member's log, creating it on first use.
func (c *ConsistencyChecker) log(memberID string) *memberLog {
	ml, ok := c.members[memberID]
	if !ok {
		ml = &memberLog{}
		c.members[memberID] = ml
	}
	return ml
}

// Record adds one answer and updates the member's violation statistics
// against all their previous answers.
func (c *ConsistencyChecker) Record(memberID string, fs ontology.FactSet, support float64) {
	ml := c.log(memberID)
	for _, prev := range ml.answers {
		switch {
		case ontology.LeqFactSet(c.v, prev.fs, fs):
			// prev is more general: supp(prev) ≥ supp(fs) expected.
			ml.pairs++
			if support > prev.support+c.Tolerance {
				ml.bad++
			}
		case ontology.LeqFactSet(c.v, fs, prev.fs):
			ml.pairs++
			if prev.support > support+c.Tolerance {
				ml.bad++
			}
		}
	}
	ml.answers = append(ml.answers, recorded{fs: fs, support: support})
}

// ViolationRate returns the member's fraction of violating comparable pairs
// (0 when no comparable pairs were seen).
func (c *ConsistencyChecker) ViolationRate(memberID string) float64 {
	ml, ok := c.members[memberID]
	if !ok || ml.pairs == 0 {
		return 0
	}
	return float64(ml.bad) / float64(ml.pairs)
}

// IsSpammer flags members whose violation rate exceeds the maximum, given at
// least a handful of comparable pairs to judge from.
func (c *ConsistencyChecker) IsSpammer(memberID string) bool {
	ml, ok := c.members[memberID]
	return ok && ml.pairs >= 4 && c.ViolationRate(memberID) > c.MaxViolationRate
}

// Flagged returns all members currently flagged, sorted by ID.
func (c *ConsistencyChecker) Flagged() []string {
	var out []string
	for id := range c.members {
		if c.IsSpammer(id) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
