package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"taskalloc/internal/scenario"
)

// This file is the behavioral-identity layer of the hash stack. JobHash
// and SweepHash (wire.go) digest the *syntactic* canonical form: the
// defaults-applied struct as submitted, family by family. SemanticHash,
// SemanticSweepHash, and SemanticBisectHash digest the *behavioral
// normal form* instead: the demand schedule is decoded through its
// validating constructor, reduced by scenario.Canon, and re-encoded, and
// timeline events that provably change nothing (a resize to the size
// already in force, a noise switch to the regime already in force) are
// dropped. Two configs that induce the identical trajectory
// distribution — a frozen snapshot vs. its generative family with the
// same realized demand, a Markov chain that degenerates to a step, a
// one-point trace vs. a static — therefore digest identically, and
// every cache keyed on the semantic hash serves them from one entry.
//
// Soundness contract: a reduction only fires when it is exactly
// behavior-preserving (engines consume schedules solely through At, and
// scenario.Canon preserves At pointwise; dropped events are pure no-ops
// at the engine layer and leave the Report untouched). Anything that
// fails to decode or validate keeps its syntactic form — an invalid
// config must keep its own identity rather than alias a valid one's
// cache entry.

// semanticDomain separates the semantic digests from the syntactic ones:
// a normal form that happens to re-encode to a job's exact canonical
// bytes must still never collide hashes across the two layers.
const semanticDomain = "semantic/v1\n"

// SemanticHash digests one job's behavioral normal form: hex SHA-256 of
// the defaults-applied struct with the demand schedule canonicalized by
// scenario.Canon and no-op timeline events dropped. Like JobHash it is
// sensitive to Meta, Rounds, and Trajectory (they change the rendered
// response); unlike JobHash it is insensitive to which of several
// behaviorally-equivalent schedule encodings was submitted.
func SemanticHash(j Job) (string, error) {
	return semanticHash(j, semCache{})
}

func semanticHash(j Job, cache semCache) (string, error) {
	b, err := json.Marshal(semanticJob(j, cache))
	if err != nil {
		return "", fmt.Errorf("wire: semantic hash job: %w", err)
	}
	return semanticDigest(b), nil
}

// semanticDigest is SemanticHash over a job's marshalled normal form.
func semanticDigest(normal []byte) string {
	h := sha256.New()
	h.Write([]byte(semanticDomain))
	h.Write(normal)
	return hex.EncodeToString(h.Sum(nil))
}

// SemanticSweepHash digests a whole grid's behavioral normal form: the
// version tag and every job's normalized bytes, in order. The service's
// sweep result cache keys on it, so syntactically distinct but
// behaviorally identical submissions coalesce onto one entry.
// Normalization of a schedule encoding shared by many cells (the
// cmd/sweep pattern: one frozen snapshot for the whole grid) runs once,
// not per job.
func SemanticSweepHash(s Sweep) (string, error) {
	id, _, err := SemanticSweepKeys(s)
	return id, err
}

// SemanticSweepKeys is SemanticSweepHash plus every job's result key:
// the SemanticHash of the job with Trajectory cleared, which names the
// Report a cell produces whatever it renders. The keys come out of the
// same pass over the same schedule memo as the sweep hash, so a
// schedule the grid's cells share is normalized once for both.
func SemanticSweepKeys(s Sweep) (id string, keys []string, err error) {
	cache := semCache{}
	h := sha256.New()
	fmt.Fprintf(h, "%s%s\n", semanticDomain, orDefault(s.Version, V1))
	keys = make([]string, len(s.Jobs))
	for i, j := range s.Jobs {
		norm := semanticJob(j, cache)
		b, err := json.Marshal(norm)
		if err != nil {
			return "", nil, fmt.Errorf("wire: semantic hash jobs[%d]: %w", i, err)
		}
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
		if norm.Trajectory {
			norm.Trajectory = false
			if b, err = json.Marshal(norm); err != nil {
				return "", nil, fmt.Errorf("wire: semantic hash jobs[%d]: %w", i, err)
			}
		}
		keys[i] = semanticDigest(b)
	}
	return hex.EncodeToString(h.Sum(nil)), keys, nil
}

// SemanticBisectHash digests a bisect request over the template job's
// behavioral normal form plus the search parameters. It is the response
// ID a backend and the grid coordinator stamp, and the key of the
// server's in-flight bisect coalescing. The coordinator places a
// search's cells per γ, by SemanticHash, not by this hash.
func SemanticBisectHash(b BisectRequest) (string, error) {
	id, _, err := SemanticBisectKeys(b)
	return id, err
}

// SemanticBisectKeys is SemanticBisectHash plus the result-key function
// of the search's γ cells (a job's SemanticHash with Trajectory
// cleared, as SemanticSweepKeys keys a sweep's job). The function
// shares the hash's schedule memo, so the template's schedule is
// normalized once per search. It is not safe for concurrent use.
func SemanticBisectKeys(b BisectRequest) (id string, key func(Job) (string, error), err error) {
	cache := semCache{}
	b.Job.Trajectory = false // ignored by bisect; must not split the hash
	jb, err := json.Marshal(semanticJob(b.Job, cache))
	if err != nil {
		return "", nil, fmt.Errorf("wire: semantic hash bisect request: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%sbisect/%s\n%g %g %g %d\n", semanticDomain, orDefault(b.Version, V1),
		b.GammaLo, b.GammaHi, b.TargetBand, b.MaxEvals)
	h.Write(jb)
	return hex.EncodeToString(h.Sum(nil)), func(j Job) (string, error) {
		j.Trajectory = false
		return semanticHash(j, cache)
	}, nil
}

// semCache memoizes normalized schedule encodings by their syntactic
// JSON, so a sweep whose cells share one schedule pays the decode →
// Canon → re-encode pass (O(horizon) for frozen snapshots) once. A nil
// value records an irreducible (invalid) encoding.
type semCache map[string]*Schedule

// normalize returns the canonical re-encoding of sc, or ok=false when
// sc does not decode/validate and must keep its syntactic identity.
func (m semCache) normalize(sc *Schedule) (*Schedule, bool) {
	key := FrozenKey(sc)
	if got, hit := m[key]; hit {
		return got, got != nil
	}
	var out *Schedule
	if dec, err := sc.ToSchedule(); err == nil {
		if enc, err := FromSchedule(scenario.Canon(dec)); err == nil {
			out = &enc
		}
	}
	m[key] = out
	return out, out != nil
}

// semanticJob maps a job to its behavioral normal form. Every reduction
// is gated on validity: on any decode or validation failure the
// affected part keeps its syntactic canonical form.
func semanticJob(j Job, cache semCache) Job {
	j = canonicalJob(j)
	c := j.Config
	if sc, ok := scheduleForm(c); ok {
		if norm, ok := cache.normalize(sc); ok {
			c.Schedule = norm
			c.Demands = nil
			c.DemandChanges = nil
		}
	}
	if out, ok := canonSizeChanges(c.Ants, c.SizeChanges); ok {
		c.SizeChanges = out
	}
	if out, ok := canonNoiseChanges(*c.Noise, c.NoiseChanges); ok {
		c.NoiseChanges = out
	}
	j.Config = c
	return j
}

// scheduleForm unifies the three demand spellings taskalloc.Config
// accepts into one wire Schedule: an explicit Schedule, Demands (a
// static), or Demands + DemandChanges (exactly demand.NewStep, which is
// how taskalloc.New builds them). Returns ok=false for combinations
// taskalloc.New rejects (both spellings at once, changes without a
// base, no demand at all) — those keep their syntactic identity.
func scheduleForm(c Config) (*Schedule, bool) {
	switch {
	case c.Schedule != nil:
		if len(c.Demands) > 0 || len(c.DemandChanges) > 0 {
			return nil, false // mutually exclusive; taskalloc.New rejects
		}
		return c.Schedule, true
	case len(c.Demands) > 0:
		sc := &Schedule{Kind: "static", Base: c.Demands}
		if len(c.DemandChanges) > 0 {
			sc.Kind = "step"
			for _, ch := range c.DemandChanges {
				sc.When = append(sc.When, ch.At)
				sc.Vectors = append(sc.Vectors, ch.Demands)
			}
		}
		return sc, true
	default:
		return nil, false
	}
}

// canonSizeChanges drops resize events whose target equals the colony
// size already in force: Engine.Resize (dense, sequential, and
// mean-field alike) with m == active is a pure no-op, so the
// trajectory, the Report, and the noise placement are untouched.
// Returns ok=false — leave the list alone — unless the events satisfy
// the Timeline validation rules (At >= 1, strictly increasing, To in
// [1, ants]): an invalid config must keep its own identity.
func canonSizeChanges(ants int, cs []SizeChange) ([]SizeChange, bool) {
	for i, c := range cs {
		if c.At < 1 || c.To < 1 || c.To > ants {
			return nil, false
		}
		if i > 0 && c.At <= cs[i-1].At {
			return nil, false
		}
	}
	inForce := ants
	out := cs
	dropped := false
	for i, c := range cs {
		if c.To == inForce {
			if !dropped {
				out = append([]SizeChange(nil), cs[:i]...)
				dropped = true
			}
			continue
		}
		if dropped {
			out = append(out, c)
		}
		inForce = c.To
	}
	if dropped && len(out) == 0 {
		out = nil // an all-no-op list must digest like an absent one
	}
	return out, true
}

// canonNoiseChanges drops noise switches to the regime already in force
// (entries are already canonicalized by canonicalJob, so equality is
// exact): SwitchedModel consults the in-force model per round, and the
// Report carries no model identity, so a switch to the same parameters
// changes neither trajectory nor rendered bytes. Returns ok=false
// unless every entry satisfies Timeline validation (At >= 1, strictly
// increasing) and every noise kind decodes — invalid configs keep
// their own identity.
func canonNoiseChanges(base Noise, ncs []NoiseChange) ([]NoiseChange, bool) {
	if _, err := base.toNoise(); err != nil {
		return nil, false
	}
	for i, c := range ncs {
		if c.At < 1 {
			return nil, false
		}
		if i > 0 && c.At <= ncs[i-1].At {
			return nil, false
		}
		if _, err := c.Noise.toNoise(); err != nil {
			return nil, false
		}
	}
	inForce := base
	out := ncs
	dropped := false
	for i, c := range ncs {
		if c.Noise == inForce {
			if !dropped {
				out = append([]NoiseChange(nil), ncs[:i]...)
				dropped = true
			}
			continue
		}
		if dropped {
			out = append(out, c)
		}
		inForce = c.Noise
	}
	if dropped && len(out) == 0 {
		out = nil
	}
	return out, true
}
