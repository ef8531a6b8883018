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
	build func(Config) (servable, error)
}{
	{KindGreedy, func(cfg Config) (servable, error) { return NewGreedy(cfg) }},
	{KindLPNoFilter, func(cfg Config) (servable, error) { return NewLPNoFilter(cfg) }},
	{KindLPFilter, func(cfg Config) (servable, error) { return NewLPFilter(cfg) }},
	{KindProof, func(cfg Config) (servable, error) { return NewProofPlanner(cfg) }},
}

// servable is a planner a Snapshot can freeze and stamp out: freeze
// does the budget-independent work ahead of the first request, and
// clone copies the frozen planner for a goroutine of its own.
type servable interface {
	Planner
	freeze()
	clone() Planner
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
	p, err := newServable(kind, cfg)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func newServable(kind string, cfg Config) (servable, error) {
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

// Snapshot is a frozen, shareable parametric-planning state: the
// sample window deep-copied at a fixed generation, plus one prototype
// planner whose parametric LP is built once from it. It is the
// concurrency bridge between the single-goroutine planners (warm
// basis chains keyed on sample generation)
// and a serving tier: the snapshot itself is immutable and safe for
// concurrent use, and NewPlanner stamps out independent planners —
// each with its own model clone, lp.Workspace, and warm chain — that
// workers own exclusively.
//
// Freezing matters twice over. First, the live sample window keeps
// sliding (Set.Add mutates in place, bumping Gen), which would
// invalidate every cached program mid-flight; the clone's generation
// never moves, so a pooled planner's chain stays warm for the
// snapshot's lifetime. Second, the paper's planners are only
// meaningful against one coherent sample matrix — two requests served
// from different windows are answers to different questions, so the
// pool keys requests by the generation captured here (Gen).
//
// Planners stamped from one snapshot share the frozen samples, the
// network, and the costs — all read-only — but never LP state: the
// model is cloned per planner (lp.Model.Clone; a Basis is
// pointer-keyed to its model, so chains cannot cross), and each
// planner gets its own workspace and budget frontier. Each planner pays one
// cold solve to open its chain, then serves every later budget warm or,
// inside a frontier piece, with no solve at all.
type Snapshot struct {
	kind  string
	gen   uint64 // live window generation at freeze time
	k     int
	proto servable // never planned with; only cloned
}

// NewSnapshot validates cfg, freezes its sample window, and builds the
// planner kind's parametric program once. The returned snapshot no
// longer references the live sample set; callers may keep mutating it.
func NewSnapshot(cfg Config, kind string) (*Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gen := cfg.Samples.Gen()
	cfg.Samples = cfg.Samples.Clone()
	proto, err := newServable(kind, cfg)
	if err != nil {
		return nil, err
	}
	proto.freeze()
	return &Snapshot{kind: CanonicalKind(kind), gen: gen, k: cfg.K, proto: proto}, nil
}

// Kind returns the planner kind the snapshot serves.
func (s *Snapshot) Kind() string { return s.kind }

// Gen returns the live sample window's mutation generation at freeze
// time — the pool-key component that distinguishes snapshots of the
// same network as the window slides.
func (s *Snapshot) Gen() uint64 { return s.gen }

// K returns the rank bound the snapshot plans for.
func (s *Snapshot) K() int { return s.k }

// NewPlanner stamps out an independent planner over the frozen state:
// the prototype's prebuilt program is cloned, so the first Plan call
// skips the program build and goes straight to a chain-opening cold
// solve. Safe to call concurrently; the returned planner is
// single-goroutine like any other and must be owned by exactly one
// goroutine.
func (s *Snapshot) NewPlanner() (Planner, error) { return s.proto.clone(), nil }
