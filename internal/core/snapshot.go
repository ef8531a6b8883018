package core

import (
	"fmt"
	"strings"
)

// Planner kinds: the -planner CLI vocabulary for the planners the
// catalog builds and a Snapshot can serve.
const (
	KindGreedy     = "greedy"
	KindLPNoFilter = "lp-lf"
	KindLPFilter   = "lp+lf"
	KindProof      = "proof"
)

// catalog is the one map from a planner kind to its constructor.
var catalog = []struct {
	kind  string
	build func(Config) (Planner, error)
}{
	{KindGreedy, func(cfg Config) (Planner, error) { return NewGreedy(cfg) }},
	{KindLPNoFilter, func(cfg Config) (Planner, error) { return NewLPNoFilter(cfg) }},
	{KindLPFilter, func(cfg Config) (Planner, error) { return NewLPFilter(cfg) }},
	{KindProof, func(cfg Config) (Planner, error) { return NewProofPlanner(cfg) }},
}

// CanonicalKind spells a planner name the way the catalog does: in
// lower case, with a space read as '+'. A URL query string decodes an
// unescaped "lp+lf" to "lp lf", and no kind name holds a space; the
// query language's "LP+LF" and the CLI's "lp+lf" are one kind.
func CanonicalKind(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), " ", "+")
}

// New builds a planner of the named kind (see CanonicalKind).
func New(kind string, cfg Config) (Planner, error) {
	kind = CanonicalKind(kind)
	var kinds []string
	for _, e := range catalog {
		if e.kind == kind {
			p, err := e.build(cfg)
			if err != nil {
				return nil, err
			}
			return p, nil
		}
		kinds = append(kinds, e.kind)
	}
	return nil, fmt.Errorf("core: unknown planner kind %q (want one of %s)", kind, strings.Join(kinds, ", "))
}

// Snapshot is a frozen, shareable planning state: the planner kind and
// a Config whose sample window is deep-copied at a fixed generation.
// It is the bridge between the planners, which are not safe for
// concurrent use, and a serving tier: the snapshot itself is immutable
// and safe for concurrent use, and NewPlanner builds independent
// planners over it.
//
// Freezing matters twice over. First, the live sample window keeps
// sliding (Set.Add mutates in place, bumping Gen), which would
// invalidate every cached program mid-flight; the copy's generation
// never moves, so a planner built from the snapshot keeps its program,
// warm basis and budget frontier for the snapshot's lifetime. Second,
// the paper's planners are only meaningful against one coherent
// sample matrix — two requests served from different windows are
// answers to different questions, so a serving tier keys requests by
// the generation captured here (Gen).
//
// Planners built from one snapshot share the frozen samples, the
// network and the costs — all read-only — but never LP state: each
// builds its own program on its first Plan call, opens its warm chain
// with one cold solve, and keeps its own budget frontier.
type Snapshot struct {
	kind string
	gen  uint64 // live window generation at freeze time
	cfg  Config // Samples is the frozen copy
}

// NewSnapshot validates cfg and the planner kind and freezes cfg's
// sample window. The returned snapshot no longer references the live
// sample set; callers may keep mutating it.
func NewSnapshot(cfg Config, kind string) (*Snapshot, error) {
	// A planner's constructor validates cfg and builds nothing yet.
	if _, err := New(kind, cfg); err != nil {
		return nil, err
	}
	gen := cfg.Samples.Gen()
	cfg.Samples = cfg.Samples.Clone()
	return &Snapshot{kind: CanonicalKind(kind), gen: gen, cfg: cfg}, nil
}

// Kind returns the planner kind the snapshot serves.
func (s *Snapshot) Kind() string { return s.kind }

// Gen returns the live sample window's mutation generation at freeze
// time — the serving key component that distinguishes snapshots of
// the same network as the window slides.
func (s *Snapshot) Gen() uint64 { return s.gen }

// K returns the rank bound the snapshot plans for.
func (s *Snapshot) K() int { return s.cfg.K }

// NewPlanner builds an independent planner over the frozen state; its
// first Plan call builds the program and opens the chain with a cold
// solve. Safe to call concurrently; the returned planner, like any
// other, is not safe for concurrent use.
func (s *Snapshot) NewPlanner() (Planner, error) { return New(s.kind, s.cfg) }
