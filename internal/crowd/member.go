// Package crowd models the crowd of Section 2 of the OASSIS paper: members
// with virtual personal databases (bags of transactions) whose support for a
// fact-set can only be learned by asking questions, the two question types
// of Section 4.1 (concrete and specialization), the 5-point answer scale of
// the prototype UI (Section 6.2), user-guided pruning and "none of these"
// optimizations, black-box answer aggregation (Section 4.2) and the
// consistency-based spammer filter sketched in "Crowd member selection".
package crowd

import (
	"math"
	"math/rand"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// Response is a crowd member's answer to one question.
type Response struct {
	// Support is the answered support value, already translated from the
	// UI scale ("never" … "very often") to [0, 1].
	Support float64
	// Pruned lists terms the member marked irrelevant (user-guided
	// pruning, Section 6.2): every assignment involving such a value or
	// a more specific one has support 0 for this member.
	Pruned []vocab.TermID
	// Departed marks a non-answer: the member left the crowd (or timed
	// out beyond recovery) instead of answering. Section 4.2 allows a
	// member's session to "be terminated at any point"; the engine must
	// not record a support value for a departed response and must stop
	// asking the member.
	Departed bool
}

// Member is a crowd data contributor. The engine never sees the personal
// database — only answers (the database is "completely virtual", Section 2).
type Member interface {
	// ID identifies the member across sessions.
	ID() string
	// AskConcrete answers "how often ...?" for an instantiated fact-set.
	AskConcrete(fs ontology.FactSet) Response
	// AskSpecialize presents a specialization question: candidate
	// refinements of base (each already instantiated to a fact-set, the
	// auto-completion suggestions of the UI). It returns the index of
	// the chosen candidate and its support, or -1 for "none of these" —
	// which the engine interprets as support 0 for every candidate.
	AskSpecialize(base ontology.FactSet, candidates []ontology.FactSet) (int, Response)
}

// Attributed is an optional Member extension carrying profile attributes
// (home city, age group, ...). The crowd-selection clause of OASSIS-QL
// (`FROM CROWD WITH attr = "v"`, the Section 8 extension) matches against
// these; members without the interface never match a filtered query.
type Attributed interface {
	// Attribute returns the named profile attribute.
	Attribute(name string) (string, bool)
}

// UIScale is the prototype's answer scale: never, rarely, sometimes, often,
// very often (Section 6.2).
var UIScale = []float64{0, 0.25, 0.5, 0.75, 1}

// BucketSupport snaps an exact support value to the nearest scale answer.
func BucketSupport(s float64, scale []float64) float64 {
	if len(scale) == 0 {
		return s
	}
	best, bestDist := scale[0], math.Abs(s-scale[0])
	for _, v := range scale[1:] {
		if d := math.Abs(s - v); d < bestDist {
			best, bestDist = v, d
		}
	}
	return best
}

// SimMember simulates a crowd member from a concrete personal database:
// answers are the true support in the database, bucketed to the UI scale.
// This substitutes the paper's human crowd while exercising exactly the same
// engine code paths (see DESIGN.md).
type SimMember struct {
	id string
	v  *vocab.Vocabulary
	db []ontology.FactSet

	// Scale is the answer scale (nil for exact answers, as in the
	// synthetic experiments).
	Scale []float64
	// PruneRatio is the probability of volunteering a pruning click when
	// a zero-support question mentions a term the member never engages
	// with (the paper observed 13% pruning answers).
	PruneRatio float64
	// Attrs holds profile attributes for crowd selection.
	Attrs map[string]string

	// seed and rng serve only pruning clicks, so the generator is seeded
	// on the member's first zero-support pruning draw (the draw stream is
	// the one an eagerly seeded generator gives); a member that never
	// faces such a question never pays for seeding.
	seed int64
	rng  *rand.Rand
}

// NewSimMember builds a simulated member over a personal database. The seed
// makes pruning decisions reproducible.
func NewSimMember(id string, v *vocab.Vocabulary, db []ontology.FactSet, seed int64) *SimMember {
	return &SimMember{id: id, v: v, db: db, Scale: UIScale, seed: seed}
}

// ID implements Member.
func (m *SimMember) ID() string { return m.id }

// Attribute implements Attributed.
func (m *SimMember) Attribute(name string) (string, bool) {
	v, ok := m.Attrs[name]
	return v, ok
}

// TrueSupport computes the exact support in the member's database.
func (m *SimMember) TrueSupport(fs ontology.FactSet) float64 {
	return ontology.Support(m.v, m.db, fs)
}

// AskConcrete implements Member: bucketed true support, with an occasional
// pruning click on zero-support questions.
func (m *SimMember) AskConcrete(fs ontology.FactSet) Response {
	s := m.TrueSupport(fs)
	resp := Response{Support: BucketSupport(s, m.Scale)}
	if s == 0 && m.PruneRatio > 0 {
		if m.rng == nil {
			m.rng = rand.New(rand.NewSource(m.seed))
		}
		if m.rng.Float64() < m.PruneRatio {
			resp.Pruned = m.irrelevantTerms(fs)
		}
	}
	return resp
}

// irrelevantTerms returns the fact-set's terms that never occur in the
// member's history, not even as a generalization of a term that does (at
// most one element, mirroring the single-click UI).
func (m *SimMember) irrelevantTerms(fs ontology.FactSet) []vocab.TermID {
	for _, f := range fs {
		for _, e := range []vocab.TermID{f.S, f.O} {
			if e != ontology.Any && !m.engagesWith(e) {
				return []vocab.TermID{e}
			}
		}
	}
	return nil
}

// engagesWith reports whether e or a specialization of e occurs in the
// member's transactions. Pruning clicks are rare, so this scans the
// history per click instead of keeping a closure per member.
func (m *SimMember) engagesWith(e vocab.TermID) bool {
	for _, t := range m.db {
		for _, f := range t {
			if m.v.LeqE(e, f.S) || m.v.LeqE(e, f.O) {
				return true
			}
		}
	}
	return false
}

// AskSpecialize implements Member: the member picks the candidate they do
// most often; "none of these" when every candidate has zero support.
func (m *SimMember) AskSpecialize(base ontology.FactSet, candidates []ontology.FactSet) (int, Response) {
	best, bestSupport := -1, 0.0
	for i, c := range candidates {
		if s := m.TrueSupport(c); s > bestSupport {
			best, bestSupport = i, s
		}
	}
	if best < 0 {
		return -1, Response{}
	}
	return best, Response{Support: BucketSupport(bestSupport, m.Scale)}
}

// Spammer is a member that answers uniformly at random, used to exercise
// the consistency filter.
type Spammer struct {
	id  string
	rng *rand.Rand
}

// NewSpammer builds a random-answering member.
func NewSpammer(id string, seed int64) *Spammer {
	return &Spammer{id: id, rng: rand.New(rand.NewSource(seed))}
}

// ID implements Member.
func (s *Spammer) ID() string { return s.id }

// AskConcrete implements Member with a uniformly random scale answer.
func (s *Spammer) AskConcrete(ontology.FactSet) Response {
	return Response{Support: UIScale[s.rng.Intn(len(UIScale))]}
}

// AskSpecialize implements Member with a random candidate choice.
func (s *Spammer) AskSpecialize(_ ontology.FactSet, candidates []ontology.FactSet) (int, Response) {
	if len(candidates) == 0 || s.rng.Intn(4) == 0 {
		return -1, Response{}
	}
	return s.rng.Intn(len(candidates)), Response{Support: UIScale[s.rng.Intn(len(UIScale))]}
}
